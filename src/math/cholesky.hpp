// Cholesky factorization of symmetric positive-definite matrices.
//
// This is the workhorse of the interior-point SDP solver: PSD feasibility
// tests, step-length computation, and the Schur-complement solve all go
// through it.
#pragma once

#include "math/mat.hpp"
#include "math/vec.hpp"

namespace scs {

/// Lower-triangular Cholesky factor: A = L L^T.
/// `ok()` is false when A is not (numerically) positive definite.
class Cholesky {
 public:
  explicit Cholesky(const Mat& a, double tol = 0.0);

  bool ok() const { return ok_; }
  const Mat& lower() const { return l_; }

  /// Solve A x = b.
  Vec solve(const Vec& b) const;
  /// Solve L y = b (forward substitution only).
  Vec solve_lower(const Vec& b) const;
  /// Solve L^T x = b (backward substitution only).
  Vec solve_lower_t(const Vec& b) const;
  /// Solve A X = B column-wise.
  Mat solve(const Mat& b) const;

  /// Inverse of the lower factor, L^{-1} (used for SDP scaling matrices).
  Mat lower_inverse() const;

 private:
  Mat l_;
  bool ok_ = false;
};

/// True when the symmetric matrix is positive definite within tolerance.
bool is_positive_definite(const Mat& a, double tol = 0.0);

}  // namespace scs
