#include "ode/integrator.hpp"

#include "util/check.hpp"

namespace scs {

Vec rk4_step(const VectorField& field, const Vec& x, double dt) {
  SCS_REQUIRE(dt > 0.0, "rk4_step: dt must be positive");
  const Vec k1 = field(x);
  Vec x2 = x;
  x2.axpy(0.5 * dt, k1);
  const Vec k2 = field(x2);
  Vec x3 = x;
  x3.axpy(0.5 * dt, k2);
  const Vec k3 = field(x3);
  Vec x4 = x;
  x4.axpy(dt, k3);
  const Vec k4 = field(x4);

  Vec out = x;
  out.axpy(dt / 6.0, k1);
  out.axpy(dt / 3.0, k2);
  out.axpy(dt / 3.0, k3);
  out.axpy(dt / 6.0, k4);
  return out;
}

}  // namespace scs
