#include "sos/certificate.hpp"

#include "util/check.hpp"

namespace scs {

bool check_putinar_identity(const Polynomial& f, const Polynomial& sigma0,
                            const std::vector<Polynomial>& g,
                            const std::vector<Polynomial>& sigma,
                            double tol) {
  SCS_REQUIRE(g.size() == sigma.size(),
              "check_putinar_identity: multiplier count mismatch");
  Polynomial rhs = sigma0;
  for (std::size_t i = 0; i < g.size(); ++i) rhs += sigma[i] * g[i];
  return max_coefficient_diff(f, rhs) <= tol;
}

}  // namespace scs
