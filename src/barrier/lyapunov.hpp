// Lyapunov-function synthesis on the same SOS machinery -- the natural
// companion of barrier certificates (and the "stability" half of what
// learned controllers are usually asked to certify).
//
// For a closed-loop polynomial field f with f(0) = 0, find V with
//   V(x) - eps ||x||^2        SOS   (positive definiteness)
//   -L_f V(x) - eps ||x||^2   SOS   (strict decrease)
// over the whole space (global) -- sufficient for asymptotic stability of
// the origin. V is searched at degree 2, then 4, with eps = 1e-3.
#pragma once

#include <string>
#include <vector>

#include "poly/polynomial.hpp"

namespace scs {

struct LyapunovResult {
  bool success = false;
  Polynomial function;  // V(x)
  int degree = 0;
  std::string failure_reason;
};

/// Synthesize a global polynomial Lyapunov function for the (closed-loop)
/// field. The field must vanish at the origin up to `equilibrium_tol`.
LyapunovResult synthesize_lyapunov(const std::vector<Polynomial>& field,
                                   double equilibrium_tol = 1e-9);

}  // namespace scs
