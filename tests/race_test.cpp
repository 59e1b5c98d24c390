// Portfolio racing over the barrier ladder: speculative arms on the work
// pool, loser cancellation through child JobControl scopes, winner
// recording, and bitwise-deterministic replay of a recorded winner.
#include <gtest/gtest.h>

#include <vector>

#include "barrier/synthesis.hpp"
#include "core/pipeline.hpp"
#include "poly/polynomial.hpp"
#include "systems/benchmarks.hpp"
#include "systems/ccds.hpp"
#include "util/cancellation.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

/// The 2-D damped oscillator used across the barrier tests: feasible at
/// degree 2 under every lambda strategy.
Ccds toy2() {
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
  return sys;
}

BarrierConfig race_config() {
  BarrierConfig cfg;
  cfg.degree_schedule = {2, 4};
  cfg.race.enabled = true;
  cfg.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear,
                         LambdaStrategy::kAlternating};
  return cfg;
}

TEST(BarrierRace, RaceFindsCertificateAndRecordsWinner) {
  const Ccds sys = toy2();
  const BarrierConfig cfg = race_config();
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;
  EXPECT_TRUE(result.raced);
  EXPECT_GE(result.winner_arm, 0);
  EXPECT_FALSE(result.winner_arm_desc.empty());
  EXPECT_FALSE(result.accepted_via.empty());
  EXPECT_GE(result.arms_launched, 1);
  // The winning certificate actually separates Theta from X_u.
  EXPECT_GT(result.barrier.evaluate(Vec{0.0, 0.0}), 0.0);
  EXPECT_LT(result.barrier.evaluate(Vec{1.9, 1.9}), 0.0);
  // Accepted diagnostics describe the accepted solve, so they sit within
  // the acceptance tolerances.
  EXPECT_LE(result.max_identity_residual, cfg.identity_tol);
  EXPECT_GE(result.min_gram_eigenvalue, -cfg.gram_tol);
}

TEST(BarrierRace, ReplayReproducesRacedResultBitwise) {
  const Ccds sys = toy2();
  const BarrierConfig cfg = race_config();
  const BarrierResult raced = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(raced.success) << raced.failure_reason;
  ASSERT_GE(raced.winner_arm, 0);

  BarrierConfig replay_cfg = cfg;
  replay_cfg.race.replay_arm = raced.winner_arm;
  const BarrierResult replayed =
      synthesize_barrier(sys, {Polynomial(2)}, replay_cfg);
  ASSERT_TRUE(replayed.success) << replayed.failure_reason;
  EXPECT_TRUE(replayed.raced);
  // Bitwise: Polynomial equality is exact coefficient equality.
  EXPECT_TRUE(replayed.barrier == raced.barrier);
  EXPECT_TRUE(replayed.lambda == raced.lambda);
  EXPECT_EQ(replayed.degree, raced.degree);
  EXPECT_EQ(replayed.strategy_used, raced.strategy_used);
  EXPECT_EQ(replayed.accepted_via, raced.accepted_via);
  EXPECT_EQ(replayed.winner_arm, raced.winner_arm);
  EXPECT_EQ(replayed.winner_arm_desc, raced.winner_arm_desc);
  EXPECT_EQ(replayed.max_identity_residual, raced.max_identity_residual);
  EXPECT_EQ(replayed.min_gram_eigenvalue, raced.min_gram_eigenvalue);
}

TEST(BarrierRace, SerialWinnerArmIsReplayable) {
  // The serial ladder records winner_arm too; pinning it via replay_arm
  // reproduces the serial certificate bitwise (arm numerics are
  // schedule-independent by construction).
  const Ccds sys = toy2();
  BarrierConfig cfg;
  cfg.degree_schedule = {2, 4};
  cfg.lambda_strategy = LambdaStrategy::kLinear;
  const BarrierResult serial = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(serial.success) << serial.failure_reason;
  EXPECT_FALSE(serial.raced);
  ASSERT_GE(serial.winner_arm, 0);

  BarrierConfig replay_cfg = cfg;
  replay_cfg.race.replay_arm = serial.winner_arm;
  const BarrierResult replayed =
      synthesize_barrier(sys, {Polynomial(2)}, replay_cfg);
  ASSERT_TRUE(replayed.success) << replayed.failure_reason;
  EXPECT_TRUE(replayed.barrier == serial.barrier);
  EXPECT_TRUE(replayed.lambda == serial.lambda);
  EXPECT_EQ(replayed.winner_arm_desc, serial.winner_arm_desc);
}

TEST(BarrierRace, RaceIsReplayStableAcrossThreadCounts) {
  // Whatever arm wins under contention, its replay must not depend on the
  // pool size: replay runs exactly one arm from its own stream.
  const Ccds sys = toy2();
  const BarrierConfig cfg = race_config();
  const BarrierResult raced = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(raced.success) << raced.failure_reason;

  BarrierConfig replay_cfg = cfg;
  replay_cfg.race.replay_arm = raced.winner_arm;
  set_parallel_threads(1);
  const BarrierResult serial_replay =
      synthesize_barrier(sys, {Polynomial(2)}, replay_cfg);
  set_parallel_threads(0);
  ASSERT_TRUE(serial_replay.success) << serial_replay.failure_reason;
  EXPECT_TRUE(serial_replay.barrier == raced.barrier);
  EXPECT_TRUE(serial_replay.lambda == raced.lambda);
}

TEST(BarrierRace, RaceFailsCleanlyWhenNoArmFeasible) {
  // Destabilizing feedback on the pendulum: no degree <= 4 certificate
  // exists, so every arm completes without a winner.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.race.enabled = true;
  cfg.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  const BarrierResult result =
      synthesize_barrier(bench.ccds, {x1 * 10.0 + x2 * 2.0}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.raced);
  EXPECT_EQ(result.winner_arm, -1);
  EXPECT_FALSE(result.failure_reason.empty());
}

TEST(BarrierRace, RaceHonorsParentCancel) {
  const Ccds sys = toy2();
  BarrierConfig cfg = race_config();
  JobControl control;
  control.cancel();
  cfg.sdp.control = &control;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure_reason.find("preempted"), std::string::npos)
      << result.failure_reason;
}

TEST(BarrierRace, ReplayArmOutOfRangeIsRejected) {
  const Ccds sys = toy2();
  BarrierConfig cfg = race_config();
  cfg.race.replay_arm = 10000;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure_reason.find("replay_arm"), std::string::npos)
      << result.failure_reason;
}

TEST(BarrierRace, RaceConfigEntersConfigHash) {
  // Racing can change which certificate is produced, so it must be part
  // of the cache identity.
  BarrierConfig off;
  BarrierConfig on = off;
  on.race.enabled = true;
  on.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  Fnv1a h_off, h_on, h_replay;
  hash_append(h_off, off);
  hash_append(h_on, on);
  BarrierConfig replay = on;
  replay.race.replay_arm = 3;
  hash_append(h_replay, replay);
  EXPECT_NE(h_off.digest(), h_on.digest());
  EXPECT_NE(h_on.digest(), h_replay.digest());
}

TEST(BarrierRace, PipelineReplaysWinnerOfLaterRung) {
  // 1-D integrator under a cubic law: PAC picks the degree-3 surrogate,
  // whose SOS programs exceed the size guard, as do the degree-2 ones. The
  // degree-1 surrogate (ladder rung 2) wins, and its winner_arm indexes
  // the whole ladder, so replaying it re-runs exactly that one arm.
  Benchmark bench;
  bench.id = BenchmarkId::kC1;
  bench.name = "race-cubic";
  bench.ccds.name = "race-cubic";
  bench.ccds.num_states = 1;
  bench.ccds.num_controls = 1;
  bench.ccds.open_field = {Polynomial::variable(2, 1)};
  const Box box = Box::centered(1, 3.0);
  bench.ccds.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  bench.ccds.domain = SemialgebraicSet::from_box(box);
  bench.ccds.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  bench.ccds.control_bound = 3.0;
  bench.pac.max_degree = 3;
  const ControlLaw law = [](const Vec& x) {
    return Vec{-x[0] - 0.1 * x[0] * x[0] * x[0]};
  };
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 5;
  cfg.barrier.max_sdp_constraints = 10;
  const SynthesisResult found = synthesize_from_law(bench, law, cfg);
  ASSERT_TRUE(found.barrier.success) << found.barrier.failure_reason;
  EXPECT_EQ(found.barrier.winner_arm_desc.rfind("r2/", 0), 0u)
      << found.barrier.winner_arm_desc;
  EXPECT_EQ(found.pac.model.degree, 1);

  cfg.barrier.race.replay_arm = found.barrier.winner_arm;
  const SynthesisResult replayed = synthesize_from_law(bench, law, cfg);
  ASSERT_TRUE(replayed.barrier.success) << replayed.barrier.failure_reason;
  EXPECT_EQ(replayed.barrier.arms_launched, 1);
  EXPECT_EQ(replayed.barrier.winner_arm, found.barrier.winner_arm);
  EXPECT_EQ(replayed.barrier.winner_arm_desc, found.barrier.winner_arm_desc);
  EXPECT_TRUE(replayed.barrier.barrier == found.barrier.barrier);
  EXPECT_TRUE(replayed.barrier.lambda == found.barrier.lambda);
  ASSERT_EQ(replayed.controller.size(), 1u);
  EXPECT_TRUE(replayed.controller.front() == found.controller.front());
  EXPECT_TRUE(replayed.pac.model.poly == found.pac.model.poly);
  EXPECT_EQ(replayed.pac.model.degree, found.pac.model.degree);
  EXPECT_EQ(replayed.pac.model.error, found.pac.model.error);
}

}  // namespace
}  // namespace scs
