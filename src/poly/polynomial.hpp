// Sparse multivariate polynomials over R, the ring R[x] of Section 2.
//
// Terms are kept in a std::map ordered by GrlexLess, so iteration order is
// deterministic and matches the paper's template vector [x]_d. Polynomials
// are immutable-ish value types; arithmetic returns new values.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "math/vec.hpp"
#include "poly/monomial.hpp"

namespace scs {

class Polynomial {
 public:
  /// The zero polynomial over n variables.
  explicit Polynomial(std::size_t num_vars = 0);

  /// A constant polynomial over n variables.
  static Polynomial constant(std::size_t num_vars, double value);
  /// The variable x_i (0-based) over n variables.
  static Polynomial variable(std::size_t num_vars, std::size_t i);
  /// A single term c * x^alpha.
  static Polynomial term(double coeff, const Monomial& m);
  /// From a coefficient vector against an explicit monomial basis.
  static Polynomial from_coefficients(const std::vector<Monomial>& basis,
                                      const Vec& coeffs);

  std::size_t num_vars() const { return num_vars_; }
  bool is_zero() const { return terms_.empty(); }
  /// Total degree; -1 for the zero polynomial.
  int degree() const;
  std::size_t term_count() const { return terms_.size(); }

  const std::map<Monomial, double, GrlexLess>& terms() const { return terms_; }

  /// Coefficient of a monomial (0 if absent).
  double coefficient(const Monomial& m) const;
  /// Set / overwrite a coefficient (dropping it if ~0).
  void set_coefficient(const Monomial& m, double value);

  Polynomial& operator+=(const Polynomial& rhs);
  Polynomial& operator-=(const Polynomial& rhs);
  Polynomial& operator*=(double s);

  Polynomial operator+(const Polynomial& rhs) const;
  Polynomial operator-(const Polynomial& rhs) const;
  Polynomial operator-() const;
  Polynomial operator*(const Polynomial& rhs) const;
  Polynomial operator*(double s) const;

  /// Small integer power.
  Polynomial pow(int exponent) const;

  /// Partial derivative with respect to variable `var`.
  Polynomial derivative(std::size_t var) const;

  double evaluate(const Vec& x) const;

  /// Substitute polynomial q for variable `var` (q must have the same
  /// variable count as this polynomial).
  Polynomial substitute(std::size_t var, const Polynomial& q) const;

  /// Reinterpret over fewer variables by dropping the trailing `count`
  /// variables, which must not occur in any term. Used after substituting
  /// controller polynomials into f(x, u) to land back in R[x].
  Polynomial drop_trailing_vars(std::size_t count) const;

  /// Reinterpret over more variables by appending `count` fresh (unused)
  /// trailing variables.
  Polynomial extend_vars(std::size_t count) const;

  /// Diagonal change of variables x_i -> s_i * x_i: returns q with
  /// q(x) = p(s .* x). Used to rescale SOS/PAC problems to the unit box,
  /// where coefficient-level tolerances control pointwise error.
  Polynomial scale_vars(const Vec& s) const;

  /// Largest |coefficient| (0 for the zero polynomial).
  double max_abs_coefficient() const;

  /// Remove terms with |coeff| <= tol (returns number removed).
  std::size_t prune(double tol);

  /// Coefficient vector against an explicit basis; throws if the polynomial
  /// has a term outside the basis.
  Vec coefficients_in(const std::vector<Monomial>& basis) const;

  bool operator==(const Polynomial& rhs) const;

  /// Human-readable form, e.g. "1.5*x1^2 - 2*x2 + 0.5".
  std::string to_string(int precision = 6) const;

 private:
  std::size_t num_vars_;
  std::map<Monomial, double, GrlexLess> terms_;

  static constexpr double kDropTol = 0.0;  // exact arithmetic on coefficients
  void add_term(const Monomial& m, double coeff);
};

Polynomial operator*(double s, const Polynomial& p);

/// Maximum absolute coefficient difference (polynomials over the same vars).
double max_coefficient_diff(const Polynomial& a, const Polynomial& b);

/// Fold a polynomial (variable count, terms, raw coefficient bits) into a
/// cache-key digest; GrlexLess iteration order makes the digest canonical.
void hash_append(Fnv1a& h, const Polynomial& p);

}  // namespace scs
