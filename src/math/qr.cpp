#include "math/qr.hpp"

#include <cmath>

#include "util/check.hpp"

namespace scs {

Qr::Qr(const Mat& a)
    : m_(a.rows()), n_(a.cols()), qr_(a), beta_(a.cols()), v0_(a.cols(), 0.0) {
  SCS_REQUIRE(m_ >= n_, "Qr: requires rows >= cols");
  for (std::size_t k = 0; k < n_; ++k) {
    // Norm of the trailing part of column k.
    double norm = 0.0;
    for (std::size_t i = k; i < m_; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      beta_[k] = 0.0;
      continue;
    }
    const double alpha = (qr_(k, k) >= 0.0) ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    double vnorm2 = v0 * v0;
    for (std::size_t i = k + 1; i < m_; ++i) vnorm2 += qr_(i, k) * qr_(i, k);
    if (vnorm2 == 0.0) {
      beta_[k] = 0.0;
      qr_(k, k) = alpha;
      continue;
    }
    beta_[k] = 2.0 / vnorm2;
    v0_[k] = v0;
    // Apply H = I - beta v v^T to the trailing columns. The sub-diagonal part
    // of column k already holds v_{k+1..m-1}; v0 is kept separately.
    for (std::size_t j = k + 1; j < n_; ++j) {
      double s = v0 * qr_(k, j);
      for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * qr_(i, j);
      s *= beta_[k];
      qr_(k, j) -= s * v0;
      for (std::size_t i = k + 1; i < m_; ++i) qr_(i, j) -= s * qr_(i, k);
    }
    qr_(k, k) = alpha;
  }
}

std::size_t Qr::rank(double rel_tol) const {
  double rmax = 0.0;
  for (std::size_t i = 0; i < n_; ++i)
    rmax = std::max(rmax, std::fabs(qr_(i, i)));
  if (rmax == 0.0) return 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i < n_; ++i)
    if (std::fabs(qr_(i, i)) > rel_tol * rmax) ++r;
  return r;
}

Vec Qr::apply_qt(const Vec& b) const {
  SCS_REQUIRE(b.size() == m_, "Qr::apply_qt: size mismatch");
  Vec y(b);
  for (std::size_t k = 0; k < n_; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = v0_[k] * y[k];
    for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * y[i];
    s *= beta_[k];
    y[k] -= s * v0_[k];
    for (std::size_t i = k + 1; i < m_; ++i) y[i] -= s * qr_(i, k);
  }
  return y;
}

Vec Qr::solve_least_squares(const Vec& b) const {
  Vec y = apply_qt(b);
  Vec x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    const double rii = qr_(ii, ii);
    SCS_REQUIRE(std::fabs(rii) > 1e-14,
                "Qr::solve_least_squares: rank-deficient matrix");
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n_; ++j) acc -= qr_(ii, j) * x[j];
    x[ii] = acc / rii;
  }
  return x;
}

Vec least_squares(const Mat& a, const Vec& b) {
  return Qr(a).solve_least_squares(b);
}

}  // namespace scs
