// Cross-module integration tests: obstacle-type unsafe sets, multi-input
// systems, and PAC -> barrier composition on non-pendulum geometry.
#include <gtest/gtest.h>

#include <cmath>

#include "barrier/independent_check.hpp"
#include "barrier/synthesis.hpp"
#include "pac/pac_fit.hpp"
#include "poly/basis.hpp"
#include "ode/trajectory.hpp"
#include "systems/benchmarks.hpp"

namespace scs {
namespace {

/// 3-D damped system with an obstacle ball (C9-style geometry, small n so
/// the test stays fast).
Ccds obstacle_system() {
  Ccds sys;
  sys.name = "obstacle-3d";
  sys.num_states = 3;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(4, 0);
  const auto x2 = Polynomial::variable(4, 1);
  const auto x3 = Polynomial::variable(4, 2);
  const auto u = Polynomial::variable(4, 3);
  sys.open_field = {-x1 * 0.5 + x2 * 0.1, -x2 * 0.5 + x3 * 0.1,
                    -x3 * 0.5 + u};
  const Box psi = Box::centered(3, 2.0);
  Vec obstacle{1.2, 1.2, 0.0};
  sys.init_set = SemialgebraicSet::ball(Vec(3, 0.0), 0.4);
  sys.domain = SemialgebraicSet::from_box(psi);
  sys.unsafe_set = SemialgebraicSet::ball(obstacle, 0.5);
  sys.control_bound = 1.0;
  return sys;
}

TEST(Integration, ObstacleGeometryBarrier) {
  const Ccds sys = obstacle_system();
  // u = 0: the plant contracts to the origin, away from the obstacle.
  BarrierConfig cfg;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(3)}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;
  // The certificate separates Theta (positive) from the obstacle (negative).
  EXPECT_GT(result.barrier.evaluate(Vec{0.0, 0.0, 0.0}), 0.0);
  EXPECT_LT(result.barrier.evaluate(Vec{1.2, 1.2, 0.0}), 0.0);

  Rng rng(3);
  ValidationConfig vcfg;
  vcfg.samples_per_set = 800;
  vcfg.simulation_rollouts = 5;
  const ValidationReport report =
      validate_barrier(sys, {Polynomial(3)}, result.barrier, result.lambda,
                       cfg.rho, vcfg, rng);
  EXPECT_TRUE(report.passed) << report.detail;
}

TEST(Integration, MultiInputCloseLoopAndPacFit) {
  // Two-input system: each channel fit independently by the PAC stage.
  Ccds sys;
  sys.name = "two-input";
  sys.num_states = 2;
  sys.num_controls = 2;
  const auto x1 = Polynomial::variable(4, 0);
  const auto x2 = Polynomial::variable(4, 1);
  const auto u1 = Polynomial::variable(4, 2);
  const auto u2 = Polynomial::variable(4, 3);
  sys.open_field = {-x1 + u1, -x2 + u2};
  const Box psi = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(psi);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, psi);
  sys.control_bound = 2.0;
  sys.validate();

  // A vector law to approximate.
  const auto law = [](const Vec& x) {
    return Vec{-0.5 * x[0], std::tanh(x[1])};
  };
  Rng rng(4);
  PacSettings settings;
  settings.eps_list = {0.1, 0.05};
  const PacVectorResult pac =
      pac_approximate_vector(law, 2, sys.domain, settings, rng);
  ASSERT_TRUE(pac.success);
  ASSERT_EQ(pac.models.size(), 2u);

  // Close the loop with both fitted channels and certify.
  const std::vector<Polynomial> controller = {pac.models[0].poly,
                                              pac.models[1].poly};
  const auto closed = sys.closed_loop(controller);
  EXPECT_EQ(closed.size(), 2u);
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  const BarrierResult result = synthesize_barrier(sys, controller, cfg);
  EXPECT_TRUE(result.success) << result.failure_reason;
}

TEST(Integration, BarrierCertificateImpliesSimulationSafety) {
  // Property check: whenever the barrier stage accepts, closed-loop
  // simulations from Theta never reach X_u within a long horizon.
  const Benchmark bench = make_benchmark(BenchmarkId::kC3);
  const Polynomial controller =
      -Polynomial::variable(3, 0) * 0.4 - Polynomial::variable(3, 2) * 0.4;
  BarrierConfig cfg;
  const BarrierResult result =
      synthesize_barrier(bench.ccds, {controller}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;

  Rng rng(5);
  const VectorField field = bench.ccds.closed_loop_field(
      std::vector<Polynomial>{controller});
  for (int trial = 0; trial < 10; ++trial) {
    const Vec x0 = bench.ccds.init_set.sample(rng);
    SimulateOptions opts;
    opts.dt = 0.02;
    opts.max_steps = 2000;
    opts.record = false;
    const Trajectory traj =
        simulate(field, x0, opts, [&](const Vec& x) {
          return bench.ccds.unsafe_set.contains(x);
        });
    EXPECT_EQ(traj.stop, StopReason::kHorizonReached);
  }
}

TEST(Integration, BarrierLevelSetSeparatesReachableTube) {
  // B must stay nonnegative along closed-loop trajectories from Theta
  // (the defining property of barrier invariance).
  const Benchmark bench = make_benchmark(BenchmarkId::kC5);
  Polynomial controller(5);  // u = 0; the cascade is already contracting
  BarrierConfig cfg;
  const BarrierResult result =
      synthesize_barrier(bench.ccds, {controller}, cfg);
  ASSERT_TRUE(result.success) << result.failure_reason;

  Rng rng(6);
  const VectorField field = bench.ccds.closed_loop_field(
      std::vector<Polynomial>{controller});
  for (int trial = 0; trial < 5; ++trial) {
    Vec x = bench.ccds.init_set.sample(rng);
    for (int step = 0; step < 1000; ++step) {
      x = rk4_step(field, x, 0.02);
      EXPECT_GE(result.barrier.evaluate(x), -1e-6)
          << "B went negative on a trajectory at step " << step;
    }
  }
}

}  // namespace
}  // namespace scs
