// Tests for the RL environment: reward shaping Eq. (4), termination
// handling, and actuator scaling.
#include <gtest/gtest.h>

#include <cmath>

#include "rl/env.hpp"
#include "systems/benchmarks.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

Ccds simple_system() {
  Ccds sys;
  sys.name = "env-toy";
  sys.num_states = 1;
  sys.num_controls = 1;
  sys.open_field = {Polynomial::variable(2, 1)};  // xdot = u
  const Box box = Box::centered(1, 4.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  sys.control_bound = 1.0;
  return sys;
}

TEST(ControlEnv, ResetFromInitSamplesTheta) {
  ControlEnv env(simple_system(), {});
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Vec x = env.reset_from_init(rng);
    EXPECT_LE(std::fabs(x[0]), 0.5);
  }
}

TEST(ControlEnv, TrainingResetMixesThetaAndDomain) {
  // Half the training restarts come from Psi (kRestartDomainFraction).
  ControlEnv env(simple_system(), {});
  Rng rng(1);
  int outside_theta = 0;
  for (int i = 0; i < 100; ++i)
    if (std::fabs(env.reset(rng)[0]) > 0.5) ++outside_theta;
  EXPECT_GT(outside_theta, 10);
  EXPECT_LT(outside_theta, 90);
}

TEST(ControlEnv, RewardMatchesEq4OutsideBelt) {
  // r = beta1 * dist(X_u, x); at x = 0 the distance to the shell is 2.
  EnvConfig cfg;
  ControlEnv env(simple_system(), cfg);
  EXPECT_NEAR(env.reward_at(Vec{0.0}), 2.0, 1e-12);
  EXPECT_NEAR(env.reward_at(Vec{1.0}), 1.0, 1e-12);
}

TEST(ControlEnv, RewardPenalizedInsideBelt) {
  // Inside the belt (dist < delta = 0.1) the penalty min(beta2/dist, cap)
  // kicks in; with dist = 0.05 the raw penalty 5/0.05 = 100 is capped at 5.
  EnvConfig cfg;
  ControlEnv env(simple_system(), cfg);
  const double r = env.reward_at(Vec{1.95});
  EXPECT_NEAR(r, 1.0 * 0.05 - 5.0, 1e-9);
}

TEST(ControlEnv, BeltPenaltyCanBeDisabled) {
  EnvConfig cfg;
  cfg.use_belt_penalty = false;
  ControlEnv env(simple_system(), cfg);
  EXPECT_NEAR(env.reward_at(Vec{1.95}), 0.05, 1e-9);
}

TEST(ControlEnv, StepIntegratesAndScalesAction) {
  EnvConfig cfg;
  cfg.dt = 0.1;
  ControlEnv env(simple_system(), cfg);
  Rng rng(2);
  env.reset(rng);
  const Vec x0 = env.state();
  // Normalized action 0.5 -> physical u = 0.5 (bound 1): x moves by ~0.05.
  const StepResult sr = env.step(Vec{0.5});
  EXPECT_NEAR(sr.next_state[0] - x0[0], 0.05, 1e-9);
  EXPECT_FALSE(sr.done);
}

TEST(ControlEnv, ActionClampedToUnitBox) {
  EnvConfig cfg;
  cfg.dt = 0.1;
  ControlEnv env(simple_system(), cfg);
  Rng rng(3);
  env.reset(rng);
  const Vec x0 = env.state();
  const StepResult sr = env.step(Vec{100.0});  // clamps to 1.0
  EXPECT_NEAR(sr.next_state[0] - x0[0], 0.1, 1e-9);
}

TEST(ControlEnv, UnsafeEntryIsNonTerminal) {
  // Entering X_u flags the violation but the episode continues with the
  // Eq. (4) capped penalty (-Delta r_min), less the action cost at |a| = 1.
  EnvConfig cfg;
  cfg.dt = 0.5;
  cfg.max_steps = 1000;
  ControlEnv env(simple_system(), cfg);
  Rng rng(4);
  env.reset(rng);
  StepResult sr;
  for (int i = 0; i < 10; ++i) {
    sr = env.step(Vec{1.0});
    if (sr.violated) break;
  }
  EXPECT_TRUE(sr.violated);
  EXPECT_FALSE(sr.done);
  EXPECT_DOUBLE_EQ(sr.reward, -kPenaltyCap - kActionPenalty);
  // Leaving Psi (|x| > 4) *is* terminal.
  for (int i = 0; i < 20 && !sr.done; ++i) sr = env.step(Vec{1.0});
  EXPECT_TRUE(sr.done);
  EXPECT_DOUBLE_EQ(sr.reward, -kTerminalPenalty);
}

TEST(ControlEnv, DomainRestartsCoverPsi) {
  ControlEnv env(simple_system(), {});
  Rng rng(11);
  bool saw_outside_theta = false;
  for (int i = 0; i < 50; ++i) {
    const Vec x = env.reset(rng);
    if (std::fabs(x[0]) > 0.5) saw_outside_theta = true;
  }
  EXPECT_TRUE(saw_outside_theta);
  // Evaluation resets always come from Theta.
  for (int i = 0; i < 20; ++i)
    EXPECT_LE(std::fabs(env.reset_from_init(rng)[0]), 0.5);
}

TEST(ControlEnv, TerminatesAtHorizon) {
  EnvConfig cfg;
  cfg.max_steps = 5;
  ControlEnv env(simple_system(), cfg);
  Rng rng(5);
  env.reset(rng);
  StepResult sr;
  for (int i = 0; i < 5; ++i) sr = env.step(Vec{0.0});
  EXPECT_TRUE(sr.done);
  EXPECT_FALSE(sr.violated);
}

TEST(ControlEnv, PaperConstantsAreDefaults) {
  EXPECT_DOUBLE_EQ(kRewardBeta1, 1.0);
  EXPECT_DOUBLE_EQ(kRewardBeta2, 5.0);
  EXPECT_DOUBLE_EQ(kBeltDelta, 0.1);
  EXPECT_DOUBLE_EQ(kPenaltyCap, 5.0);
}

TEST(ControlEnv, RejectsWrongActionSize) {
  ControlEnv env(simple_system(), {});
  Rng rng(6);
  env.reset(rng);
  EXPECT_THROW(env.step(Vec{0.0, 0.0}), PreconditionError);
}

}  // namespace
}  // namespace scs
