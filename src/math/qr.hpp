// Householder QR factorization, least-squares solves, and rank queries.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"

namespace scs {

/// Householder QR of an m x n matrix with m >= n.
/// Used for least-squares polynomial fitting (baseline LS approximation and
/// the weighted solves inside Lawson's algorithm).
class Qr {
 public:
  explicit Qr(const Mat& a);

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  /// Numerical rank with relative tolerance on |R_ii|.
  std::size_t rank(double rel_tol = 1e-12) const;

  /// Minimum-residual solution of A x = b (A must have full column rank).
  Vec solve_least_squares(const Vec& b) const;

  /// Apply Q^T to a length-m vector.
  Vec apply_qt(const Vec& b) const;

 private:
  std::size_t m_ = 0, n_ = 0;
  Mat qr_;                       // Householder vectors below diagonal, R above
  Vec beta_;                     // Householder scalar factors
  std::vector<double> v0_;       // first component of each Householder vector
};

/// Least squares solve min ||A x - b||_2 (full column rank required).
Vec least_squares(const Mat& a, const Vec& b);

}  // namespace scs
