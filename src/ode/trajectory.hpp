// Closed-loop trajectory simulation with stop-condition monitoring
// (entering the unsafe region X_u or leaving the domain Psi).
#pragma once

#include <functional>
#include <vector>

#include "math/vec.hpp"
#include "ode/integrator.hpp"

namespace scs {

/// Why a simulation stopped.
enum class StopReason {
  kHorizonReached,  // simulated all requested steps
  kPredicate,       // user stop predicate fired (e.g. entered X_u)
  kDiverged,        // state blew up (non-finite, or ||x|| > 1e6)
};

struct Trajectory {
  std::vector<Vec> states;     // includes the initial state
  std::vector<double> times;   // matching time stamps
  StopReason stop = StopReason::kHorizonReached;

  std::size_t size() const { return states.size(); }
  const Vec& back() const { return states.back(); }
};

/// Predicate evaluated after every step; returning true stops the run.
using StopPredicate = std::function<bool(const Vec&)>;

struct SimulateOptions {
  double dt = 0.01;
  std::size_t max_steps = 1000;
  bool record = true;  // keep every state (else only first/last)
};

/// Fixed-step RK4 simulation of an autonomous field.
Trajectory simulate(const VectorField& field, const Vec& x0,
                    const SimulateOptions& options,
                    const StopPredicate& stop = nullptr);

}  // namespace scs
