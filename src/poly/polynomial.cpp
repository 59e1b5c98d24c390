#include "poly/polynomial.hpp"

#include <cmath>
#include <sstream>

#include "poly/basis.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace scs {

Polynomial::Polynomial(std::size_t num_vars) : num_vars_(num_vars) {}

Polynomial Polynomial::constant(std::size_t num_vars, double value) {
  Polynomial p(num_vars);
  if (value != 0.0) p.terms_[Monomial(num_vars)] = value;
  return p;
}

Polynomial Polynomial::variable(std::size_t num_vars, std::size_t i) {
  Polynomial p(num_vars);
  p.terms_[Monomial::variable(num_vars, i)] = 1.0;
  return p;
}

Polynomial Polynomial::term(double coeff, const Monomial& m) {
  Polynomial p(m.num_vars());
  if (coeff != 0.0) p.terms_[m] = coeff;
  return p;
}

Polynomial Polynomial::from_coefficients(const std::vector<Monomial>& basis,
                                         const Vec& coeffs) {
  SCS_REQUIRE(basis.size() == coeffs.size(),
              "from_coefficients: size mismatch");
  SCS_REQUIRE(!basis.empty(), "from_coefficients: empty basis");
  Polynomial p(basis.front().num_vars());
  for (std::size_t i = 0; i < basis.size(); ++i) p.add_term(basis[i], coeffs[i]);
  return p;
}

int Polynomial::degree() const {
  if (terms_.empty()) return -1;
  // Terms are grlex-ordered, so the last one has maximal total degree.
  return terms_.rbegin()->first.degree();
}

double Polynomial::coefficient(const Monomial& m) const {
  const auto it = terms_.find(m);
  return it == terms_.end() ? 0.0 : it->second;
}

void Polynomial::set_coefficient(const Monomial& m, double value) {
  SCS_REQUIRE(m.num_vars() == num_vars_,
              "set_coefficient: variable count mismatch");
  if (value == 0.0)
    terms_.erase(m);
  else
    terms_[m] = value;
}

void Polynomial::add_term(const Monomial& m, double coeff) {
  if (coeff == 0.0) return;
  auto [it, inserted] = terms_.emplace(m, coeff);
  if (!inserted) {
    it->second += coeff;
    if (it->second == 0.0) terms_.erase(it);
  }
}

Polynomial& Polynomial::operator+=(const Polynomial& rhs) {
  SCS_REQUIRE(num_vars_ == rhs.num_vars_,
              "Polynomial::operator+=: variable count mismatch");
  for (const auto& [m, c] : rhs.terms_) add_term(m, c);
  return *this;
}

Polynomial& Polynomial::operator-=(const Polynomial& rhs) {
  SCS_REQUIRE(num_vars_ == rhs.num_vars_,
              "Polynomial::operator-=: variable count mismatch");
  for (const auto& [m, c] : rhs.terms_) add_term(m, -c);
  return *this;
}

Polynomial& Polynomial::operator*=(double s) {
  if (s == 0.0) {
    terms_.clear();
    return *this;
  }
  for (auto& [m, c] : terms_) c *= s;
  return *this;
}

Polynomial Polynomial::operator+(const Polynomial& rhs) const {
  Polynomial out(*this);
  out += rhs;
  return out;
}

Polynomial Polynomial::operator-(const Polynomial& rhs) const {
  Polynomial out(*this);
  out -= rhs;
  return out;
}

Polynomial Polynomial::operator-() const {
  Polynomial out(*this);
  out *= -1.0;
  return out;
}

Polynomial Polynomial::operator*(const Polynomial& rhs) const {
  SCS_REQUIRE(num_vars_ == rhs.num_vars_,
              "Polynomial::operator*: variable count mismatch");
  Polynomial out(num_vars_);
  for (const auto& [ma, ca] : terms_)
    for (const auto& [mb, cb] : rhs.terms_) out.add_term(ma * mb, ca * cb);
  return out;
}

Polynomial Polynomial::operator*(double s) const {
  Polynomial out(*this);
  out *= s;
  return out;
}

Polynomial Polynomial::pow(int exponent) const {
  SCS_REQUIRE(exponent >= 0, "Polynomial::pow: negative exponent");
  Polynomial acc = Polynomial::constant(num_vars_, 1.0);
  Polynomial base(*this);
  int e = exponent;
  while (e > 0) {
    if (e & 1) acc = acc * base;
    e >>= 1;
    if (e > 0) base = base * base;
  }
  return acc;
}

Polynomial Polynomial::derivative(std::size_t var) const {
  SCS_REQUIRE(var < num_vars_, "Polynomial::derivative: index out of range");
  Polynomial out(num_vars_);
  for (const auto& [m, c] : terms_) {
    const auto [k, dm] = m.derivative(var);
    if (k != 0) out.add_term(dm, c * k);
  }
  return out;
}

double Polynomial::evaluate(const Vec& x) const {
  SCS_REQUIRE(x.size() == num_vars_, "Polynomial::evaluate: size mismatch");
  double acc = 0.0;
  for (const auto& [m, c] : terms_) acc += c * m.evaluate(x);
  return acc;
}

Polynomial Polynomial::substitute(std::size_t var, const Polynomial& q) const {
  SCS_REQUIRE(var < num_vars_, "Polynomial::substitute: index out of range");
  SCS_REQUIRE(q.num_vars() == num_vars_,
              "Polynomial::substitute: variable count mismatch");
  // Cache powers of q (exponents of `var` are small).
  std::vector<Polynomial> q_pow = {Polynomial::constant(num_vars_, 1.0)};
  Polynomial out(num_vars_);
  for (const auto& [m, c] : terms_) {
    const int e = m.exponent(var);
    while (static_cast<int>(q_pow.size()) <= e)
      q_pow.push_back(q_pow.back() * q);
    // The monomial with var removed.
    std::vector<int> rest = m.exponents();
    rest[var] = 0;
    out += Polynomial::term(c, Monomial(std::move(rest))) * q_pow[e];
  }
  return out;
}

Polynomial Polynomial::drop_trailing_vars(std::size_t count) const {
  SCS_REQUIRE(count <= num_vars_, "drop_trailing_vars: count too large");
  const std::size_t keep = num_vars_ - count;
  Polynomial out(keep);
  for (const auto& [m, c] : terms_) {
    for (std::size_t i = keep; i < num_vars_; ++i)
      SCS_REQUIRE(m.exponent(i) == 0,
                  "drop_trailing_vars: trailing variable still occurs");
    std::vector<int> e(m.exponents().begin(), m.exponents().begin() + keep);
    out.add_term(Monomial(std::move(e)), c);
  }
  return out;
}

Polynomial Polynomial::extend_vars(std::size_t count) const {
  Polynomial out(num_vars_ + count);
  for (const auto& [m, c] : terms_) {
    std::vector<int> e = m.exponents();
    e.resize(num_vars_ + count, 0);
    out.add_term(Monomial(std::move(e)), c);
  }
  return out;
}

Polynomial Polynomial::scale_vars(const Vec& s) const {
  SCS_REQUIRE(s.size() == num_vars_, "scale_vars: scale dimension mismatch");
  Polynomial out(num_vars_);
  for (const auto& [m, c] : terms_) {
    double factor = 1.0;
    for (std::size_t i = 0; i < num_vars_; ++i) {
      const int e = m.exponent(i);
      if (e != 0) factor *= pow_int(s[i], e);
    }
    out.add_term(m, c * factor);
  }
  return out;
}

double Polynomial::max_abs_coefficient() const {
  double m = 0.0;
  for (const auto& [mono, c] : terms_) m = std::max(m, std::fabs(c));
  return m;
}

std::size_t Polynomial::prune(double tol) {
  std::size_t removed = 0;
  for (auto it = terms_.begin(); it != terms_.end();) {
    if (std::fabs(it->second) <= tol) {
      it = terms_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

Vec Polynomial::coefficients_in(const std::vector<Monomial>& basis) const {
  Vec out(basis.size());
  std::size_t matched = 0;
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const auto it = terms_.find(basis[i]);
    if (it != terms_.end()) {
      out[i] = it->second;
      ++matched;
    }
  }
  SCS_REQUIRE(matched == terms_.size(),
              "coefficients_in: polynomial has terms outside the basis");
  return out;
}

bool Polynomial::operator==(const Polynomial& rhs) const {
  return num_vars_ == rhs.num_vars_ && terms_ == rhs.terms_;
}

std::string Polynomial::to_string(int precision) const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  os.precision(precision);
  bool first = true;
  // Print highest-degree terms first for readability.
  for (auto it = terms_.rbegin(); it != terms_.rend(); ++it) {
    const double c = it->second;
    if (first) {
      if (c < 0.0) os << '-';
      first = false;
    } else {
      os << (c < 0.0 ? " - " : " + ");
    }
    const double a = std::fabs(c);
    const bool is_const = it->first.is_constant();
    if (a != 1.0 || is_const) {
      os << a;
      if (!is_const) os << '*';
    }
    if (!is_const) os << it->first.to_string();
  }
  return os.str();
}

Polynomial operator*(double s, const Polynomial& p) { return p * s; }

double max_coefficient_diff(const Polynomial& a, const Polynomial& b) {
  SCS_REQUIRE(a.num_vars() == b.num_vars(),
              "max_coefficient_diff: variable count mismatch");
  const Polynomial d = a - b;
  return d.max_abs_coefficient();
}


void hash_append(Fnv1a& h, const Polynomial& p) {
  hash_append(h, static_cast<std::uint64_t>(p.num_vars()));
  hash_append(h, static_cast<std::uint64_t>(p.term_count()));
  for (const auto& [mono, coeff] : p.terms()) {
    hash_append(h, mono);
    hash_append(h, coeff);
  }
}

}  // namespace scs
