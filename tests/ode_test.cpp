// Tests for the RK4 integrator and trajectory simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "ode/integrator.hpp"
#include "ode/trajectory.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

TEST(Rk4, ExponentialDecayOrder) {
  // xdot = -x, x(0) = 1: x(t) = e^{-t}. RK4 local error ~ dt^5.
  const VectorField f = [](const Vec& x) { return Vec{-x[0]}; };
  Vec x{1.0};
  const double dt = 0.1;
  for (int i = 0; i < 10; ++i) x = rk4_step(f, x, dt);
  // Global error ~ C * dt^4 with C ~ 1e-3 here.
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-6);
}

TEST(Rk4, HarmonicOscillatorEnergy) {
  // xdot = (x2, -x1): energy conserved to O(dt^4) per period.
  const VectorField f = [](const Vec& x) { return Vec{x[1], -x[0]}; };
  Vec x{1.0, 0.0};
  const double dt = 0.01;
  for (int i = 0; i < 628; ++i) x = rk4_step(f, x, dt);  // ~one period
  EXPECT_NEAR(x[0] * x[0] + x[1] * x[1], 1.0, 1e-8);
  EXPECT_NEAR(x[0], 1.0, 1e-4);
}

TEST(Rk4, ConvergenceOrderIsFour) {
  const VectorField f = [](const Vec& x) { return Vec{x[0]}; };
  const double exact = std::exp(1.0);
  double prev_err = 0.0;
  for (int halvings = 0; halvings < 3; ++halvings) {
    const int steps = 10 << halvings;
    const double dt = 1.0 / steps;
    Vec x{1.0};
    for (int i = 0; i < steps; ++i) x = rk4_step(f, x, dt);
    const double err = std::fabs(x[0] - exact);
    if (halvings > 0) {
      // Halving dt should shrink the error by ~2^4.
      EXPECT_LT(err, prev_err / 12.0);
    }
    prev_err = err;
  }
}

TEST(Simulate, StopsOnPredicate) {
  const VectorField f = [](const Vec&) { return Vec{1.0}; };  // xdot = 1
  SimulateOptions opts;
  opts.dt = 0.1;
  opts.max_steps = 1000;
  const Trajectory traj = simulate(f, Vec{0.0}, opts,
                                   [](const Vec& x) { return x[0] > 1.0; });
  EXPECT_EQ(traj.stop, StopReason::kPredicate);
  EXPECT_GT(traj.back()[0], 1.0);
  EXPECT_LT(traj.back()[0], 1.3);
}

TEST(Simulate, ReachesHorizon) {
  const VectorField f = [](const Vec& x) { return Vec{-x[0]}; };
  SimulateOptions opts;
  opts.dt = 0.01;
  opts.max_steps = 100;
  const Trajectory traj = simulate(f, Vec{1.0}, opts);
  EXPECT_EQ(traj.stop, StopReason::kHorizonReached);
  EXPECT_EQ(traj.size(), 101u);  // initial state + 100 steps
  EXPECT_NEAR(traj.times.back(), 1.0, 1e-12);
}

TEST(Simulate, DetectsDivergence) {
  const VectorField f = [](const Vec& x) { return Vec{x[0] * x[0]}; };
  SimulateOptions opts;
  opts.dt = 0.5;
  opts.max_steps = 200;
  // Past ||x|| = 1e6 on the second RK4 step.
  const Trajectory traj = simulate(f, Vec{2.0}, opts);
  EXPECT_EQ(traj.stop, StopReason::kDiverged);
}

TEST(Simulate, CompactModeKeepsEndpoints) {
  const VectorField f = [](const Vec& x) { return Vec{-x[0]}; };
  SimulateOptions opts;
  opts.dt = 0.01;
  opts.max_steps = 50;
  opts.record = false;
  const Trajectory traj = simulate(f, Vec{1.0}, opts);
  EXPECT_LE(traj.size(), 2u);
  EXPECT_LT(traj.back()[0], 1.0);
}

TEST(Integrators, RejectBadInputs) {
  const VectorField f = [](const Vec& x) { return x; };
  EXPECT_THROW(rk4_step(f, Vec{1.0}, 0.0), PreconditionError);
}

}  // namespace
}  // namespace scs
