// Integration tests for barrier-certificate synthesis (Section 4) with
// hand-written stabilizing controllers.
#include <gtest/gtest.h>

#include "barrier/independent_check.hpp"
#include "barrier/synthesis.hpp"
#include "poly/basis.hpp"
#include "systems/benchmarks.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

/// Linear state feedback as a polynomial controller.
Polynomial linear_feedback(std::size_t n, const std::vector<double>& gains) {
  Polynomial p(n);
  for (std::size_t i = 0; i < gains.size(); ++i)
    p += Polynomial::variable(n, i) * gains[i];
  return p;
}

TEST(Barrier, SimpleStableLinearSystem) {
  // xdot = -x (1-D), Theta = [|x| <= 0.5], X_u = [|x| >= 1.5] in [-2, 2]:
  // B = 1 - x^2 certifies safety; the SOS program must find something.
  Ccds sys;
  sys.name = "toy";
  sys.num_states = 1;
  sys.num_controls = 1;
  const auto x = Polynomial::variable(2, 0);
  const auto u = Polynomial::variable(2, 1);
  sys.open_field = {-x + u};
  const Box box = Box::centered(1, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 1.5, box);
  sys.control_bound = 1.0;

  const Polynomial zero_controller(1);  // u = 0; plant already stable
  BarrierConfig config;
  config.degree_schedule = {2};
  const BarrierResult result = synthesize_barrier(sys, {zero_controller},
                                                  config);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_EQ(result.degree, 2);
  // The certificate separates Theta from X_u.
  EXPECT_GT(result.barrier.evaluate(Vec{0.0}), 0.0);
  EXPECT_LT(result.barrier.evaluate(Vec{1.9}), 0.0);
}

TEST(Barrier, PendulumWithGravityCompensation) {
  // Example 1 with a gravity-compensating feedback
  //   u = 9.875 x1 - 1.56 x1^3 + 0.056 x1^5 - x1 - 2 x2,
  // which renders the closed loop a damped linear oscillator
  // (x1' = x2, x2' = -x1 - 2.1 x2) whose radius is monotone non-increasing
  // -- exactly the kind of policy the paper's RL stage converges to (and
  // why Table 2 reports a degree-3+ surrogate for C1).
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial controller =
      x1 * 9.875 - x1.pow(3) * 1.56 + x1.pow(5) * 0.056 - x1 - x2 * 2.0;
  BarrierConfig config;
  const BarrierResult result =
      synthesize_barrier(bench.ccds, {controller}, config);
  ASSERT_TRUE(result.success) << result.failure_reason;
  // Independent numerical validation of Theorem 1's conditions.
  Rng rng(1);
  ValidationConfig vcfg;
  vcfg.samples_per_set = 1000;
  vcfg.simulation_rollouts = 5;
  const ValidationReport report =
      validate_barrier(bench.ccds, {controller}, result.barrier,
                       result.lambda, config.rho, vcfg, rng);
  EXPECT_TRUE(report.passed) << report.detail;
}

TEST(Barrier, InfeasibleForUnsafeController) {
  // Destabilizing feedback u = +10 x1 on the pendulum: trajectories from
  // Theta blow through the shell, so no certificate of degree <= 4 exists.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const Polynomial controller = linear_feedback(2, {10.0, 2.0});
  BarrierConfig config;
  config.lambda_attempts = 2;
  const BarrierResult result =
      synthesize_barrier(bench.ccds, {controller}, config);
  EXPECT_FALSE(result.success);
  // The verdict says why: the last arm of the ladder, and how many of its
  // SOS programs the SDP proved infeasible.
  EXPECT_EQ(result.failure_reason.rfind(
                "arm constant/d=4/a=1: 1 of 1 SOS program(s) proven "
                "infeasible; last: SDP infeasible: every solution has ",
                0),
            0u)
      << result.failure_reason;
}

TEST(Barrier, DegreeScheduleGuardSkipsHugePrograms) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC8);  // n = 9
  BarrierConfig config;
  config.degree_schedule = {8};  // deliberately enormous
  config.max_sdp_constraints = 100;
  const BarrierResult result = synthesize_barrier(
      bench.ccds, {linear_feedback(9, {-1.0})}, config);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure_reason.find("size guard"), std::string::npos);
}

TEST(Barrier, LambdaStrategiesReported) {
  EXPECT_EQ(to_string(LambdaStrategy::kZero), "zero");
  EXPECT_EQ(to_string(LambdaStrategy::kConstant), "constant");
  EXPECT_EQ(to_string(LambdaStrategy::kLinear), "linear");
  EXPECT_EQ(to_string(LambdaStrategy::kAlternating), "alternating-BMI");
}

/// Weakly damped toy2 oscillator: xdot = (x2, -x1 - damping x2 + u). The
/// degree-2 joint LMI struggles on low damping, which is what pushes the
/// alternating heuristic into its lambda-/B-step recovery loop.
Ccds toy2_weak(double damping) {
  Ccds sys;
  sys.name = "toy2w";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {x2, x1 * -1.0 - x2 * damping + u};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, box);
  sys.control_bound = 1.0;
  return sys;
}

// Regression guard for the alternating-BMI diagnostics bug: when a BMI
// step is accepted, max_identity_residual / min_gram_eigenvalue must
// describe the *accepted* solve, not linger from the earlier failed one.
// An accepted solve is by definition within the acceptance tolerances, so
// out-of-tolerance diagnostics on success betray stale values.

TEST(BarrierBmi, BStepAcceptanceReportsAcceptedDiagnostics) {
  // (toy2 damping 1.0, seed 1, degree {2}): the initial LMI fails, the
  // first B-step accepts -- accepted_via pins the path.
  const Ccds sys = toy2_weak(1.0);
  BarrierConfig cfg;
  cfg.lambda_strategy = LambdaStrategy::kAlternating;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 1;
  cfg.seed = 1;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;
  ASSERT_EQ(result.accepted_via, "bmi-b");
  EXPECT_LE(result.max_identity_residual, cfg.identity_tol);
  EXPECT_GE(result.min_gram_eigenvalue, -cfg.gram_tol);
}

TEST(BarrierBmi, LambdaStepAcceptanceReportsAcceptedDiagnostics) {
  // (toy2 damping 0.4, seed 1, degree {2}): LMI fails, the round-1
  // lambda- and B-steps fail, the round-2 lambda-step accepts. Before the
  // fix this path kept the failed solve's diagnostics in the result.
  const Ccds sys = toy2_weak(0.4);
  BarrierConfig cfg;
  cfg.lambda_strategy = LambdaStrategy::kAlternating;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.seed = 1;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;
  ASSERT_EQ(result.accepted_via, "bmi-lambda");
  EXPECT_LE(result.max_identity_residual, cfg.identity_tol);
  EXPECT_GE(result.min_gram_eigenvalue, -cfg.gram_tol);
}

class BarrierLambdaSweep
    : public ::testing::TestWithParam<LambdaStrategy> {};

TEST_P(BarrierLambdaSweep, ToySystemFeasibleUnderEveryStrategy) {
  Ccds sys;
  sys.name = "toy2";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {x2, -x1 - x2 + u};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, box);
  sys.control_bound = 1.0;

  BarrierConfig config;
  config.lambda_strategy = GetParam();
  config.degree_schedule = {2, 4};
  const BarrierResult result =
      synthesize_barrier(sys, {Polynomial(2)}, config);
  EXPECT_TRUE(result.success) << result.failure_reason;
}

INSTANTIATE_TEST_SUITE_P(Strategies, BarrierLambdaSweep,
                         ::testing::Values(LambdaStrategy::kConstant,
                                           LambdaStrategy::kLinear,
                                           LambdaStrategy::kAlternating));

}  // namespace
}  // namespace scs
