// Tests for Algorithm 1: PAC polynomial approximation of a control law.
//
// PacFitOptions::max_design_bytes stays settable for one reason: the
// design-matrix memory guard is a production path (a full Theorem-3 count
// at eps = 1e-4 trips it), and a unit test reaches it only by lowering the
// limit -- the same exception as BarrierConfig::max_sdp_constraints.
#include <gtest/gtest.h>

#include <cmath>

#include "pac/pac_fit.hpp"
#include "pac/scenario.hpp"
#include "util/check.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

SemialgebraicSet unit_box_domain(std::size_t n) {
  return SemialgebraicSet::from_box(Box::centered(n, 1.0));
}

PacSettings fast_settings() {
  PacSettings s;
  s.eps_list = {0.1, 0.05};  // keeps K small for unit tests
  s.max_degree = 3;
  return s;
}

TEST(PacFit, RecoversExactPolynomialAtDegreeOne) {
  // Target is itself linear: Algorithm 1 must stop at d = 1 with e ~ 0.
  const ScalarFn fn = [](const Vec& x) { return 2.0 * x[0] - 0.5 * x[1]; };
  Rng rng(1);
  const PacResult result =
      pac_approximate(fn, unit_box_domain(2), fast_settings(), rng);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.model.degree, 1);
  EXPECT_LT(result.model.error, 1e-9);
  EXPECT_NEAR(result.model.poly.evaluate(Vec{0.5, 0.5}), 0.75, 1e-8);
}

TEST(PacFit, EscalatesDegreeForNonlinearTarget) {
  // tanh(2x) on [-1,1] needs degree 3 for error <= 0.05.
  const ScalarFn fn = [](const Vec& x) { return std::tanh(2.0 * x[0]); };
  Rng rng(2);
  PacSettings s = fast_settings();
  s.tau = 0.05;
  const PacResult result = pac_approximate(fn, unit_box_domain(1), s, rng);
  ASSERT_TRUE(result.success);
  EXPECT_GE(result.model.degree, 2);
  EXPECT_LE(result.model.error, 0.05);
  // The trace covers every degree attempted, in order.
  EXPECT_GE(result.trace.size(), 2u);
  EXPECT_EQ(result.trace.front().degree, 1);
}

TEST(PacFit, FailsWhenTauUnreachable) {
  // A spiky function that low-degree polynomials cannot approximate well.
  const ScalarFn fn = [](const Vec& x) {
    return x[0] > 0.0 ? 1.0 : -1.0;  // step function
  };
  Rng rng(3);
  PacSettings s = fast_settings();
  s.tau = 0.01;
  s.max_degree = 2;
  const PacResult result = pac_approximate(fn, unit_box_domain(1), s, rng);
  EXPECT_FALSE(result.success);
  // Best attempt is still reported.
  EXPECT_GT(result.model.error, 0.01);
}

TEST(PacFit, SampleCountsFollowTheorem3) {
  const ScalarFn fn = [](const Vec& x) { return x[0]; };
  Rng rng(4);
  PacSettings s;
  s.eps_list = {0.1};
  s.max_degree = 1;
  const PacResult result = pac_approximate(fn, unit_box_domain(2), s, rng);
  ASSERT_FALSE(result.trace.empty());
  const PacTraceRow& row = result.trace.front();
  EXPECT_EQ(row.samples,
            scenario_sample_count(0.1, kPacEta, pac_template_kappa(2, 1)));
  EXPECT_EQ(row.samples, row.samples_used);
}

TEST(PacFit, SampleCapRecomputesEps) {
  const ScalarFn fn = [](const Vec& x) { return x[0]; };
  Rng rng(5);
  PacSettings s;
  s.eps_list = {0.001};  // would need ~tens of thousands of samples
  s.max_degree = 1;
  PacFitOptions opts;
  opts.max_samples = 500;
  const PacResult result =
      pac_approximate(fn, unit_box_domain(2), s, rng, opts);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().samples_used, 500u);
  // Honest eps for 500 samples is much larger than the requested 0.001.
  EXPECT_GT(result.trace.front().eps, 0.05);
}

TEST(PacFit, EmpiricalViolationRateWithinEps) {
  // Fit with a real PAC budget, then measure the hold-out violation rate:
  // Theorem 3 promises it stays below eps (with high confidence).
  const ScalarFn fn = [](const Vec& x) {
    return std::sin(x[0]) * 0.5 + 0.25 * x[1];
  };
  Rng rng(6);
  PacSettings s;
  // check(error_list) needs at least two eps attempts per degree.
  s.eps_list = {0.1, 0.05};
  s.max_degree = 3;
  s.tau = 0.1;
  const PacResult result = pac_approximate(fn, unit_box_domain(2), s, rng);
  ASSERT_TRUE(result.success);
  const double rate = empirical_violation_rate(result.model, fn,
                                               unit_box_domain(2), 20000, rng);
  EXPECT_LE(rate, result.model.eps * 1.5 + 1e-3);
}

TEST(PacFit, VectorWrapperFitsEachChannel) {
  const auto fn = [](const Vec& x) { return Vec{x[0], -2.0 * x[1]}; };
  Rng rng(7);
  const PacVectorResult result = pac_approximate_vector(
      fn, 2, unit_box_domain(2), fast_settings(), rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.models.size(), 2u);
  EXPECT_NEAR(result.models[0].poly.evaluate(Vec{0.3, 0.9}), 0.3, 1e-6);
  EXPECT_NEAR(result.models[1].poly.evaluate(Vec{0.3, 0.9}), -1.8, 1e-6);
}

TEST(PacFit, TraceRowsAreInternallyConsistent) {
  const ScalarFn fn = [](const Vec& x) { return std::tanh(x[0] + x[1]); };
  Rng rng(8);
  const PacResult result =
      pac_approximate(fn, unit_box_domain(2), fast_settings(), rng);
  int last_degree = 0;
  for (const auto& row : result.trace) {
    EXPECT_GE(row.degree, last_degree);  // degrees never decrease
    last_degree = row.degree;
    EXPECT_GT(row.samples_used, 0u);
    EXPECT_GE(row.error, 0.0);
    if (row.accepted) {
      EXPECT_TRUE(row.converged);
    }
  }
}

TEST(PacFit, MemoryGuardCapsSamples) {
  // A tiny design-matrix budget forces the cap regardless of Theorem 3.
  const ScalarFn fn = [](const Vec& x) { return x[0]; };
  Rng rng(10);
  PacSettings s;
  s.eps_list = {0.001};  // Theorem-3 K would be tens of thousands
  s.max_degree = 1;
  PacFitOptions opts;
  opts.max_design_bytes = 8 * 3 * 2000;  // room for ~2000 rows of v = 3
  const PacResult result =
      pac_approximate(fn, SemialgebraicSet::from_box(Box::centered(2, 1.0)),
                      s, rng, opts);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_LE(result.trace.front().samples_used, 2000u);
  EXPECT_GT(result.trace.front().eps, 0.001);  // honestly recomputed
}

TEST(PacFit, RejectsBadSettings) {
  const ScalarFn fn = [](const Vec& x) { return x[0]; };
  Rng rng(9);
  PacSettings s;
  s.max_degree = 0;
  EXPECT_THROW(pac_approximate(fn, unit_box_domain(1), s, rng),
               PreconditionError);
  PacSettings s2;
  s2.eps_list = {};
  EXPECT_THROW(pac_approximate(fn, unit_box_domain(1), s2, rng),
               PreconditionError);
}

}  // namespace
}  // namespace scs
