#include "barrier/lyapunov.hpp"

#include <cmath>

#include "poly/basis.hpp"
#include "poly/lie.hpp"
#include "sos/sos_program.hpp"
#include "util/check.hpp"

namespace scs {

namespace {

constexpr int kDegrees[] = {2, 4};   // even degrees of V, tried in order
constexpr double kEpsilon = 1e-3;    // definiteness margin coefficient
constexpr double kIdentityTol = 1e-5;

}  // namespace

LyapunovResult synthesize_lyapunov(const std::vector<Polynomial>& field,
                                   double equilibrium_tol) {
  SCS_REQUIRE(!field.empty(), "synthesize_lyapunov: empty field");
  const std::size_t n = field.front().num_vars();
  SCS_REQUIRE(field.size() == n,
              "synthesize_lyapunov: field must be square in its variables");
  LyapunovResult result;

  // The origin must be an equilibrium, or no global V exists.
  const Vec origin(n, 0.0);
  for (const auto& f : field) {
    if (std::fabs(f.evaluate(origin)) > equilibrium_tol) {
      result.failure_reason = "origin is not an equilibrium of the field";
      return result;
    }
  }

  // ||x||^2 as the definiteness witness.
  Polynomial norm2(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto xi = Polynomial::variable(n, i);
    norm2 += xi * xi;
  }
  const Polynomial margin = norm2 * kEpsilon;
  const Polynomial one = Polynomial::constant(n, 1.0);

  int field_degree = 1;
  for (const auto& f : field)
    field_degree = std::max(field_degree, f.degree());

  for (int d : kDegrees) {
    // V has no constant/linear part (V(0) = 0 with a minimum there).
    std::vector<Monomial> v_basis;
    for (const auto& m : monomials_up_to(n, d))
      if (m.degree() >= 2) v_basis.push_back(m);

    SosProgram prog(n);
    const auto v_var = prog.add_free_poly(v_basis);

    // Identity 1: V - margin - s0 == 0 with s0 SOS.
    {
      const auto s0 = prog.add_sos_poly(monomials_up_to(n, d / 2));
      // Basis for s0 must also exclude degree-0/1? Not necessary: the
      // identity forces matching coefficients.
      prog.add_identity(-margin, {{one, v_var, {}}, {-one, s0, {}}});
    }
    // Identity 2: -L_f V - margin - s1 == 0 with s1 SOS.
    {
      const int lie_deg = field_degree + d - 1;
      const int s1_deg = (lie_deg % 2 == 0) ? lie_deg : lie_deg + 1;
      const auto s1 = prog.add_sos_poly(monomials_up_to(n, s1_deg / 2));
      std::vector<SosProgram::Term> terms;
      for (std::size_t i = 0; i < n; ++i)
        terms.push_back({-field[i], v_var, i});  // -L_f V
      terms.push_back({-one, s1, {}});
      prog.add_identity(-margin, std::move(terms));
    }

    const auto sol = prog.solve(nullptr, kIdentityTol);
    if (sol.feasible) {
      result.success = true;
      result.function = sol.value(v_var);
      result.degree = d;
      result.failure_reason.clear();
      return result;
    }
    result.failure_reason = sol.failure_reason;
  }
  if (result.failure_reason.empty())
    result.failure_reason = "no Lyapunov function in the degree schedule";
  return result;
}

}  // namespace scs
