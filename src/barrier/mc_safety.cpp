#include "barrier/mc_safety.hpp"

#include <cmath>

#include "ode/trajectory.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {

/// Rollouts per parallel chunk. Each chunk draws its initial states from
/// its own forked substream, so the estimate is bitwise-identical at any
/// thread count.
constexpr std::size_t kRolloutChunk = 16;

/// Significance level of the Hoeffding bound.
constexpr double kEta = 1e-6;
static_assert(kEta > 0.0 && kEta < 1.0, "estimate_safety: bad eta");

McSafetyResult run_rollouts(const Ccds& system, const VectorField& field,
                            const McSafetyConfig& config, Rng& rng) {
  SCS_REQUIRE(config.rollouts > 0, "estimate_safety: need rollouts > 0");
  McSafetyResult result;
  result.rollouts = config.rollouts;
  SimulateOptions opts;
  opts.dt = config.dt;
  opts.max_steps = config.max_steps;
  opts.record = false;
  std::vector<Rng> streams = rng.fork_streams(
      (config.rollouts + kRolloutChunk - 1) / kRolloutChunk);
  result.violations = parallel_reduce(
      config.rollouts, kRolloutChunk, std::size_t{0},
      [&](std::size_t begin, std::size_t end) {
        Rng& chunk_rng = streams[begin / kRolloutChunk];
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Vec x0 = system.init_set.sample(chunk_rng);
          const Trajectory traj =
              simulate(field, x0, opts, [&system](const Vec& x) {
                return system.unsafe_set.contains(x);
              });
          if (traj.stop == StopReason::kPredicate ||
              traj.stop == StopReason::kDiverged)
            ++count;
        }
        return count;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  result.violation_rate = static_cast<double>(result.violations) /
                          static_cast<double>(result.rollouts);
  const double hoeffding =
      std::sqrt(std::log(1.0 / kEta) /
                (2.0 * static_cast<double>(result.rollouts)));
  result.violation_upper_bound = std::min(1.0, result.violation_rate +
                                                   hoeffding);
  return result;
}
}  // namespace

McSafetyResult estimate_safety(const Ccds& system, const ControlLaw& law,
                               const McSafetyConfig& config, Rng& rng) {
  return run_rollouts(system, system.closed_loop_field(law), config, rng);
}

McSafetyResult estimate_safety(const Ccds& system,
                               const std::vector<Polynomial>& controller,
                               const McSafetyConfig& config, Rng& rng) {
  return run_rollouts(system, system.closed_loop_field(controller), config,
                      rng);
}

}  // namespace scs
