// Explicit ODE integration for simulating closed-loop dynamics: classical
// RK4 with a fixed step (cheap, predictable cost per step), used by RL
// rollouts and trajectory simulation alike.
#pragma once

#include <functional>

#include "math/vec.hpp"

namespace scs {

/// Autonomous vector field xdot = F(x).
using VectorField = std::function<Vec(const Vec&)>;

/// One classical Runge-Kutta 4 step.
Vec rk4_step(const VectorField& field, const Vec& x, double dt);

}  // namespace scs
