#include "ode/trajectory.hpp"

#include <cmath>

#include "util/check.hpp"

namespace scs {

namespace {

/// A state whose norm passes this counts as diverged.
constexpr double kDivergenceNorm = 1e6;

bool is_finite(const Vec& x) {
  for (double v : x)
    if (!std::isfinite(v)) return false;
  return true;
}
}  // namespace

Trajectory simulate(const VectorField& field, const Vec& x0,
                    const SimulateOptions& options, const StopPredicate& stop) {
  SCS_REQUIRE(options.dt > 0.0, "simulate: dt must be positive");
  Trajectory traj;
  traj.states.push_back(x0);
  traj.times.push_back(0.0);

  Vec x = x0;
  double t = 0.0;
  for (std::size_t step = 0; step < options.max_steps; ++step) {
    x = rk4_step(field, x, options.dt);
    t += options.dt;

    if (!is_finite(x) || x.norm() > kDivergenceNorm) {
      traj.stop = StopReason::kDiverged;
      break;
    }
    if (options.record) {
      traj.states.push_back(x);
      traj.times.push_back(t);
    }
    if (stop && stop(x)) {
      traj.stop = StopReason::kPredicate;
      break;
    }
  }
  if (!options.record || traj.stop == StopReason::kDiverged) {
    // Always expose the final state even in compact mode / on divergence.
    if (traj.states.back().data() != x.data()) {
      traj.states.push_back(x);
      traj.times.push_back(t);
    }
  }
  return traj;
}

}  // namespace scs
