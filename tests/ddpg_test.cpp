// Tests for the DDPG agent: mechanics (shapes, targets, buffers) and a
// small end-to-end learning check on a 1-D task.
#include <gtest/gtest.h>

#include <cmath>

#include "math/simd.hpp"
#include "rl/ddpg.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

Ccds integrator_system() {
  Ccds sys;
  sys.name = "ddpg-toy";
  sys.num_states = 1;
  sys.num_controls = 1;
  sys.open_field = {Polynomial::variable(2, 1)};  // xdot = u
  const Box box = Box::centered(1, 3.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0}, 1.0);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  sys.control_bound = 1.0;
  return sys;
}

DdpgConfig small_config() {
  DdpgConfig cfg;
  cfg.actor_hidden = {16, 16};
  cfg.warmup_steps = 100;
  return cfg;
}

TEST(Ddpg, ActionInUnitRange) {
  Rng rng(1);
  DdpgAgent agent(3, 2, small_config(), rng);
  for (int i = 0; i < 10; ++i) {
    const Vec a = agent.act(Vec(rng.uniform_vector(3, -2.0, 2.0)));
    ASSERT_EQ(a.size(), 2u);
    EXPECT_LE(std::fabs(a[0]), 1.0);
    EXPECT_LE(std::fabs(a[1]), 1.0);
  }
}

TEST(Ddpg, ControlLawScalesByBound) {
  Rng rng(2);
  DdpgAgent agent(1, 1, small_config(), rng);
  const ControlLaw law = agent.control_law(10.0);
  const Vec x{0.5};
  EXPECT_NEAR(law(x)[0], 10.0 * agent.act(x)[0], 1e-12);
}

TEST(Ddpg, TrainingRunsAndRecordsEpisodes) {
  Rng rng(3);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.max_steps = 50;
  ControlEnv env(sys, env_cfg);
  DdpgAgent agent(1, 1, small_config(), rng);
  const TrainResult result = agent.train(env, 10, rng);
  EXPECT_EQ(result.episodes.size(), 10u);
  for (const auto& ep : result.episodes) {
    EXPECT_GT(ep.steps, 0u);
    EXPECT_LE(ep.steps, 50u);
  }
}

TEST(Ddpg, TrainingChangesParameters) {
  Rng rng(4);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.max_steps = 40;
  ControlEnv env(sys, env_cfg);
  DdpgAgent agent(1, 1, small_config(), rng);
  const Vec before = agent.actor().parameters();
  agent.train(env, 5, rng);
  const Vec after = agent.actor().parameters();
  EXPECT_GT(max_abs_diff(before, after), 1e-6);
}

TEST(Ddpg, LearnsToStaySafeOnIntegrator) {
  // The 1-D integrator with shell unsafe set: staying near 0 maximizes
  // reward. After training, evaluation rollouts should be mostly safe.
  Rng rng(5);
  const Ccds sys = integrator_system();
  EnvConfig env_cfg;
  env_cfg.dt = 0.05;
  env_cfg.max_steps = 100;
  ControlEnv env(sys, env_cfg);
  DdpgAgent agent(1, 1, small_config(), rng);
  agent.train(env, 60, rng);
  const EvalResult eval = agent.evaluate(env, 20, rng);
  EXPECT_GE(eval.safety_rate, 0.9) << "mean return " << eval.mean_return;
}

TEST(Ddpg, EvaluateIsDeterministicGivenSeed) {
  Rng rng(6);
  const Ccds sys = integrator_system();
  ControlEnv env(sys, {});
  DdpgAgent agent(1, 1, small_config(), rng);
  Rng eval_rng1(42), eval_rng2(42);
  const EvalResult r1 = agent.evaluate(env, 5, eval_rng1);
  const EvalResult r2 = agent.evaluate(env, 5, eval_rng2);
  EXPECT_DOUBLE_EQ(r1.mean_return, r2.mean_return);
  EXPECT_DOUBLE_EQ(r1.safety_rate, r2.safety_rate);
}

TEST(Ddpg, RejectsBadDimensions) {
  Rng rng(7);
  EXPECT_THROW(DdpgAgent(0, 1, small_config(), rng), PreconditionError);
}

// 2-D double integrator (x0' = x1, x1' = u): the actor's input is two wide
// and the critic's three, so the forward kernel runs its lane tails.
Ccds double_integrator_system() {
  Ccds sys;
  sys.name = "ddpg-digest";
  sys.num_states = 2;
  sys.num_controls = 1;
  sys.open_field = {Polynomial::variable(3, 1), Polynomial::variable(3, 2)};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 1.0);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.8, box);
  sys.control_bound = 1.0;
  return sys;
}

/// FNV digest of every actor and critic parameter after a short run: tanh
/// actor, the 64-64 ReLU critic, batch 64, 312 minibatch updates. The 25-step
/// episodes with coarse steps often leave Psi early (11 of 20 do), so
/// many minibatches hold terminal rows.
std::uint64_t trained_parameter_digest() {
  Rng rng(2024);
  EnvConfig env_cfg;
  env_cfg.dt = 0.15;
  env_cfg.max_steps = 25;
  ControlEnv env(double_integrator_system(), env_cfg);
  DdpgConfig cfg;
  cfg.actor_hidden = {9, 7};
  cfg.warmup_steps = 64;
  DdpgAgent agent(2, 1, cfg, rng);
  agent.train(env, 20, rng);
  Fnv1a h;
  hash_append(h, agent.actor().parameters());
  hash_append(h, agent.critic().parameters());
  return h.digest();
}

// Recorded before the critic's shape, the batch size and the exploration
// noise became constants, with them set to the values they now have: every
// trained bit is pinned, on both kernel paths (and in SCS_SIMD=OFF builds,
// where the default path is the scalar one). The same build gave
// 0x3497e0f00bf52357 with a 13-16 critic, the digest the per-sample update
// the batched one replaced was pinned at.
constexpr std::uint64_t kTrainedDigest = 0x7dd3cda547bec651ULL;

TEST(Ddpg, TrainedParametersAreBitPinned) {
  EXPECT_EQ(trained_parameter_digest(), kTrainedDigest);
  simd::set_kernel_override(simd::Kernel::kScalar);
  EXPECT_EQ(trained_parameter_digest(), kTrainedDigest);
  if (simd::avx2_available()) {
    simd::set_kernel_override(simd::Kernel::kAvx2);
    EXPECT_EQ(trained_parameter_digest(), kTrainedDigest);
  }
  simd::set_kernel_override(simd::Kernel::kAuto);
}

}  // namespace
}  // namespace scs
