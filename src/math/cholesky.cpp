#include "math/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace scs {

Cholesky::Cholesky(const Mat& a, std::vector<std::size_t> first)
    : l_(a.rows(), a.cols()), first_(std::move(first)) {
  SCS_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  SCS_REQUIRE(first_.empty() || first_.size() == a.rows(),
              "Cholesky: the envelope needs one entry per row");
  for (std::size_t i = 0; i < first_.size(); ++i)
    SCS_REQUIRE(first_[i] <= i, "Cholesky: envelope entry past its row");
  factor(a);
}

bool Cholesky::refactor(const Mat& a) {
  SCS_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  SCS_REQUIRE(first_.empty() || first_.size() == a.rows(),
              "Cholesky::refactor: the envelope needs one entry per row");
  // Every entry inside the envelope is written before it is read, so the
  // storage of a previous factor of this shape needs no clearing.
  if (l_.rows() != a.rows()) l_ = Mat(a.rows(), a.rows());
  factor(a);
  return ok_;
}

void Cholesky::factor(const Mat& a) {
  const std::size_t n = a.rows();
  dots_.resize(n);
  // Column-oriented (left-looking) factorization on the lower triangle.
  // Entries left of a row's envelope stay +0 and are never written.
  for (std::size_t j = 0; j < n; ++j) {
    const double* lrow_j = l_.row_ptr(j);
    const std::size_t sj = start(j);
    double djj = a(j, j) - simd::dot(lrow_j + sj, lrow_j + sj, j - sj);
    if (fault_injection_enabled())
      djj = FaultInjector::instance().perturb_pivot(FaultSite::kCholeskyPivot,
                                                    djj);
    if (djj <= 0.0) {
      ok_ = false;
      return;
    }
    const double ljj = std::sqrt(djj);
    l_(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    // The rows below, in runs whose dots start at the same column: one
    // dot_rows call per run gives each row its dot's bits.
    for (std::size_t i = j + 1; i < n;) {
      if (first(i) > j) {
        ++i;
        continue;
      }
      const std::size_t s = std::max(sj, start(i));
      std::size_t end = i + 1;
      while (end < n && first(end) <= j && std::max(sj, start(end)) == s)
        ++end;
      simd::dot_rows(dots_.data(), l_.row_ptr(i) + s, n, end - i,
                     lrow_j + s, j - s);
      for (std::size_t r = i; r < end; ++r)
        l_(r, j) = (a(r, j) - dots_[r - i]) * inv_ljj;
      i = end;
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
    const std::size_t s = start(i);
    y[i] = (b[i] - simd::dot(row + s, y.begin() + s, i - s)) / row[i];
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
    for (std::size_t j = first(ii); j < ii; ++j) x[j] -= l_(ii, j) * xi;
  }
  return x;
}

Vec Cholesky::solve(const Vec& b) const { return solve_lower_t(solve_lower(b)); }

Mat Cholesky::solve(const Mat& b) const {
  SCS_REQUIRE(ok_, "Cholesky::solve: factorization failed");
  const std::size_t n = l_.rows();
  const std::size_t s = b.cols();
  SCS_REQUIRE(b.rows() == n, "Cholesky::solve: size mismatch");
  Mat x(n, s);
  if (s == 0) return x;
  // Forward substitution, one row for all columns: dot_columns gives each
  // column the bits of solve_lower's dot.
  std::vector<double> scratch(std::max(n, s));
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l_.row_ptr(i);
    const std::size_t st = start(i);
    simd::dot_columns(scratch.data(), row + st, 1, i - st, x.row_ptr(st), s);
    const double* bi = b.row_ptr(i);
    double* xi = x.row_ptr(i);
    for (std::size_t c = 0; c < s; ++c) xi[c] = (bi[c] - scratch[c]) / row[i];
  }
  // Backward substitution, one row at a time from the last. Row j takes
  // the terms -l(ii, j) x_ii in the order solve_lower_t gives them (ii
  // descending), then its pivot's division; x_j + (-l) x_ii is x_j - l x_ii,
  // bit for bit, and combine_rows keeps the row in registers throughout.
  std::vector<std::size_t> rows(n);
  for (std::size_t j = n; j-- > 0;) {
    std::size_t count = 0;
    for (std::size_t ii = n; ii-- > j + 1;) {
      if (first(ii) > j) continue;
      rows[count] = ii;
      scratch[count++] = -l_(ii, j);
    }
    double* xj = x.row_ptr(j);
    simd::combine_rows(xj, x.row_ptr(0), s, rows.data(), scratch.data(),
                       count);
    const double pivot = l_(j, j);
    for (std::size_t c = 0; c < s; ++c) xj[c] /= pivot;
  }
  return x;
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

bool is_positive_definite(const Mat& a) { return Cholesky(a).ok(); }

}  // namespace scs
