// The independent certificate checker must (a) accept the stored golden C1
// certificate and (b) reject perturbed variants of it -- coefficient noise,
// a shifted/negated barrier, a wrong lambda. (b) is the guard against a
// vacuously-passing checker: a checker that accepts everything would make
// the fuzz campaign's "zero soundness violations" claim meaningless.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "barrier/independent_check.hpp"
#include "obs/json_reader.hpp"
#include "poly/parse.hpp"
#include "systems/benchmarks.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

#ifndef SCS_GOLDEN_DIR
#define SCS_GOLDEN_DIR "tests/golden"
#endif

/// The default rho the pipeline's BarrierConfig uses (the golden C1 run
/// was produced with it).
constexpr double kRho = 1e-3;

struct GoldenCertificate {
  Polynomial controller;
  Polynomial barrier;
  Polynomial lambda;
};

GoldenCertificate load_golden_c1(std::size_t num_states) {
  const std::string path = std::string(SCS_GOLDEN_DIR) + "/c1_verified.json";
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing golden file " << path;
  std::stringstream buffer;
  buffer << is.rdbuf();
  const JsonValue doc = json_parse(buffer.str());
  GoldenCertificate cert;
  cert.controller =
      parse_polynomial(doc.find("controller")->string_or(""), num_states);
  cert.barrier =
      parse_polynomial(doc.find("barrier")->string_or(""), num_states);
  cert.lambda =
      parse_polynomial(doc.find("lambda")->string_or(""), num_states);
  return cert;
}

class IndependentCheckGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = make_benchmark(BenchmarkId::kC1);
    cert_ = load_golden_c1(bench_.ccds.num_states);
    ASSERT_FALSE(cert_.barrier.is_zero());
  }

  IndependentCheckReport check(const Polynomial& barrier,
                               const Polynomial& lambda) const {
    return independent_check(bench_.ccds, {cert_.controller}, barrier, lambda,
                             kRho);
  }

  Benchmark bench_;
  GoldenCertificate cert_;
};

TEST_F(IndependentCheckGolden, AcceptsTheStoredCertificate) {
  const IndependentCheckReport report = check(cert_.barrier, cert_.lambda);
  EXPECT_TRUE(report.accepted) << report.detail;
  // All three conditions must have been evaluated on real points -- an
  // accept that never saw a sample is exactly the vacuous pass this suite
  // exists to rule out.
  ASSERT_EQ(report.conditions.size(), 3u);
  EXPECT_NE(report.find("init"), nullptr);
  EXPECT_NE(report.find("unsafe"), nullptr);
  EXPECT_NE(report.find("lambda_identity"), nullptr);
  EXPECT_GT(report.find("init")->points, 0u);
  EXPECT_GT(report.find("unsafe")->points, 0u);
  EXPECT_GT(report.find("lambda_identity")->points, 0u);
  EXPECT_GT(report.scale, 0.0);
}

TEST_F(IndependentCheckGolden, RejectsAnUpshiftedBarrier) {
  // B + 0.5 stays >= 0 on Theta but violates B < 0 on X_u.
  const Polynomial shifted =
      cert_.barrier + Polynomial::constant(cert_.barrier.num_vars(), 0.5);
  const IndependentCheckReport report = check(shifted, cert_.lambda);
  EXPECT_FALSE(report.accepted);
  ASSERT_NE(report.find("unsafe"), nullptr);
  EXPECT_FALSE(report.find("unsafe")->passed) << report.detail;
}

TEST_F(IndependentCheckGolden, RejectsANegatedBarrier) {
  // -B flips condition (i): B >= 0 on Theta becomes <= 0.
  const IndependentCheckReport report = check(-cert_.barrier, cert_.lambda);
  EXPECT_FALSE(report.accepted);
  ASSERT_NE(report.find("init"), nullptr);
  EXPECT_FALSE(report.find("init")->passed) << report.detail;
}

TEST_F(IndependentCheckGolden, RejectsAWrongLambda) {
  // lambda' = lambda + 10 subtracts 10 B from the certified decrease
  // L_f B - lambda B; where B is near its positive maximum the identity
  // drops far below rho. The barrier itself is untouched -- only the
  // lambda-identity condition may catch this.
  const Polynomial wrong =
      cert_.lambda + Polynomial::constant(cert_.lambda.num_vars(), 10.0);
  const IndependentCheckReport report = check(cert_.barrier, wrong);
  EXPECT_FALSE(report.accepted);
  ASSERT_NE(report.find("lambda_identity"), nullptr);
  EXPECT_FALSE(report.find("lambda_identity")->passed) << report.detail;
}

TEST_F(IndependentCheckGolden, RejectsCoefficientNoise) {
  // Deterministic 35-55% relative noise on every coefficient: the result
  // is no longer a barrier certificate for this system and at least one
  // condition must flag it.
  Rng rng(11);
  Polynomial noisy = cert_.barrier;
  for (const auto& [mono, coeff] : cert_.barrier.terms()) {
    const double factor =
        1.0 + (rng.uniform01() < 0.5 ? -1.0 : 1.0) * rng.uniform(0.35, 0.55);
    noisy.set_coefficient(mono, coeff * factor);
  }
  const IndependentCheckReport report = check(noisy, cert_.lambda);
  EXPECT_FALSE(report.accepted) << report.detail;
}

TEST_F(IndependentCheckGolden, RejectsALambdaOfTheWrongVariableCount) {
  // lambda is required: a lambda over 3 variables for the 2-state pendulum
  // must not silently switch the lambda identity off.
  const Polynomial lambda3 = Polynomial::constant(3, -1.0);
  EXPECT_THROW(check(cert_.barrier, lambda3), PreconditionError);
}

TEST(IndependentCheck, RequiresMatchingVariableCount) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  EXPECT_THROW(independent_check(bench.ccds, {Polynomial(2)}, Polynomial(3),
                                 Polynomial(), kRho),
               std::exception);
}

}  // namespace
}  // namespace scs
