// Standalone check of Putinar-style identities (11).
#pragma once

#include <vector>

#include "poly/polynomial.hpp"

namespace scs {

/// Check the Putinar identity f == sigma0 + sum_i sigma_i * g_i to within a
/// max-coefficient tolerance. (Does not check that the sigmas are SOS.)
bool check_putinar_identity(const Polynomial& f, const Polynomial& sigma0,
                            const std::vector<Polynomial>& g,
                            const std::vector<Polynomial>& sigma,
                            double tol = 1e-6);

}  // namespace scs
