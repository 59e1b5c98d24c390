// Tests for stage 4, the pipeline's validation of a barrier certificate.
#include <gtest/gtest.h>

#include "barrier/independent_check.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

Ccds stable_toy() {
  Ccds sys;
  sys.name = "val-toy";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {-x1 + u, -x2};
  const Box box = Box::centered(2, 3.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 2.0, box);
  sys.control_bound = 1.0;
  return sys;
}

/// The textbook certificate for the shell geometry: B = r_m^2 - ||x||^2.
Polynomial shell_barrier(double r_mid) {
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  return Polynomial::constant(2, r_mid * r_mid) - x1 * x1 - x2 * x2;
}

/// lambda = -1 and rho = 1e-3: with the zero controller the shell barrier's
/// decrease L_f B - lambda B = ||x||^2 + 1 clears rho everywhere on Psi.
Polynomial toy_lambda() { return Polynomial::constant(2, -1.0); }
constexpr double kRho = 1e-3;

TEST(Validation, AcceptsTrueCertificate) {
  const Ccds sys = stable_toy();
  Rng rng(1);
  ValidationConfig cfg;
  cfg.samples_per_set = 1000;
  cfg.simulation_rollouts = 10;
  const ValidationReport report = validate_barrier(
      sys, {Polynomial(2)}, shell_barrier(1.0), toy_lambda(), kRho, cfg, rng);
  EXPECT_TRUE(report.passed) << report.detail;
  EXPECT_GT(report.find("init")->worst, 0.0);
  EXPECT_LT(report.find("unsafe")->worst, 0.0);
  EXPECT_GT(report.find("lambda_identity")->points, 0u);
  EXPECT_EQ(report.unsafe_rollouts, 0u);
  EXPECT_EQ(report.rollouts, 10u);
}

TEST(Validation, RejectsBarrierNegativeOnTheta) {
  // B = -1 everywhere violates condition (i).
  const Ccds sys = stable_toy();
  Rng rng(2);
  ValidationConfig cfg;
  cfg.samples_per_set = 200;
  cfg.simulation_rollouts = 2;
  const ValidationReport report =
      validate_barrier(sys, {Polynomial(2)}, Polynomial::constant(2, -1.0),
                       toy_lambda(), kRho, cfg, rng);
  EXPECT_FALSE(report.passed);
  const ConditionCheck* failed = first_failure(report.conditions);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->name, "init");
  EXPECT_LT(failed->worst, 0.0);
  EXPECT_EQ(failed->witness.size(), 2u);
}

TEST(Validation, RejectsBarrierPositiveOnUnsafe) {
  // B = +1 everywhere violates condition (ii).
  const Ccds sys = stable_toy();
  Rng rng(3);
  ValidationConfig cfg;
  cfg.samples_per_set = 200;
  cfg.simulation_rollouts = 2;
  const ValidationReport report =
      validate_barrier(sys, {Polynomial(2)}, Polynomial::constant(2, 1.0),
                       toy_lambda(), kRho, cfg, rng);
  EXPECT_FALSE(report.passed);
  const ConditionCheck* failed = first_failure(report.conditions);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->name, "unsafe");
  EXPECT_GT(failed->worst, 0.0);
  EXPECT_EQ(failed->witness.size(), 2u);
}

TEST(Validation, RejectsWhenDynamicsCrossLevelSet) {
  // Destabilized plant: xdot = +x under u = 2x (bound allows it... the
  // polynomial controller is unclamped). Trajectories cross B = 0 outward.
  Ccds sys = stable_toy();
  const Polynomial controller = Polynomial::variable(2, 0) * 2.0;
  Rng rng(4);
  ValidationConfig cfg;
  cfg.samples_per_set = 1000;
  cfg.simulation_rollouts = 10;
  const ValidationReport report = validate_barrier(
      sys, {controller}, shell_barrier(1.0), toy_lambda(), kRho, cfg, rng);
  EXPECT_FALSE(report.passed);
  // L_f B - lambda B = 1 - 3 x1^2 + x2^2 dips below rho wherever |x1| is
  // large, and rollouts from Theta escape along x1.
  const ConditionCheck* failed = first_failure(report.conditions);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->name, "lambda_identity");
  EXPECT_LT(failed->worst, kRho);
  EXPECT_EQ(failed->witness.size(), 2u);
  EXPECT_GT(report.unsafe_rollouts, 0u);
}

TEST(Validation, RejectsWrongVariableCount) {
  const Ccds sys = stable_toy();
  Rng rng(5);
  ValidationConfig cfg;
  EXPECT_THROW(validate_barrier(sys, {Polynomial(2)},
                                Polynomial::variable(3, 0), toy_lambda(), kRho,
                                cfg, rng),
               PreconditionError);
}

}  // namespace
}  // namespace scs
