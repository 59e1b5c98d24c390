#include "math/cholesky.hpp"

#include <cmath>

#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace scs {

Cholesky::Cholesky(const Mat& a, double tol) : l_(a.rows(), a.cols()) {
  SCS_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  // Column-oriented (left-looking) factorization on the lower triangle.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lrow_j = l_.row_ptr(j);
    double djj = a(j, j) - simd::dot(lrow_j, lrow_j, j);
    if (fault_injection_enabled())
      djj = FaultInjector::instance().perturb_pivot(FaultSite::kCholeskyPivot,
                                                    djj);
    if (djj <= tol) {
      ok_ = false;
      return;
    }
    const double ljj = std::sqrt(djj);
    l_(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* lrow_i = l_.row_ptr(i);
      const double acc = a(i, j) - simd::dot(lrow_i, lrow_j, j);
      l_(i, j) = acc * inv_ljj;
    }
  }
  ok_ = true;
}

Vec Cholesky::solve_lower(const Vec& b) const {
  SCS_REQUIRE(ok_, "Cholesky::solve_lower: factorization failed");
  const std::size_t n = l_.rows();
  SCS_REQUIRE(b.size() == n, "Cholesky::solve_lower: size mismatch");
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l_.row_ptr(i);
    y[i] = (b[i] - simd::dot(row, y.begin(), i)) / row[i];
  }
  return y;
}

Vec Cholesky::solve_lower_t(const Vec& b) const {
  SCS_REQUIRE(ok_, "Cholesky::solve_lower_t: factorization failed");
  const std::size_t n = l_.rows();
  SCS_REQUIRE(b.size() == n, "Cholesky::solve_lower_t: size mismatch");
  Vec x(b);
  for (std::size_t ii = n; ii-- > 0;) {
    x[ii] /= l_(ii, ii);
    const double xi = x[ii];
    // Subtract column ii of L (below the diagonal) from the remaining rhs.
    for (std::size_t j = 0; j < ii; ++j) x[j] -= l_(ii, j) * xi;
  }
  return x;
}

Vec Cholesky::solve(const Vec& b) const { return solve_lower_t(solve_lower(b)); }

Mat Cholesky::solve(const Mat& b) const {
  Mat out(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) out.set_col(j, solve(b.col(j)));
  return out;
}

Mat Cholesky::lower_inverse() const {
  SCS_REQUIRE(ok_, "Cholesky::lower_inverse: factorization failed");
  const std::size_t n = l_.rows();
  Mat inv(n, n);
  // Forward-substitute each unit vector; result stays lower triangular.
  for (std::size_t j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / l_(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      const double* row = l_.row_ptr(i);
      for (std::size_t k = j; k < i; ++k) acc -= row[k] * inv(k, j);
      inv(i, j) = acc / row[i];
    }
  }
  return inv;
}

bool is_positive_definite(const Mat& a, double tol) {
  return Cholesky(a, tol).ok();
}

}  // namespace scs
