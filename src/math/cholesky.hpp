// Cholesky factorization of symmetric positive-definite matrices.
//
// This is the workhorse of the interior-point SDP solver: PSD feasibility
// tests, step-length computation, and the Schur-complement solve all go
// through it.
//
// A factor may be given an envelope: first[i] is the first column of row i
// that can be nonzero, and a(i, k) must be exactly +0 for k < first[i] (the
// SDP's Schur complement is block diagonal, one block per SOS identity).
// The factor then has exact +0 there too, so every dot product starts at
// max(first[i], first[j]) rounded down to a multiple of four: it sees the
// same lanes in the same order as the dense one, and the factor and its
// solves keep the dense bits as long as the factor is finite. An empty
// envelope is the dense factorization.
#pragma once

#include <cstddef>
#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"

namespace scs {

/// Lower-triangular Cholesky factor: A = L L^T.
/// `ok()` is false when A is not (numerically) positive definite.
class Cholesky {
 public:
  /// Factors `a`, inside the envelope `first` when one is given (one entry
  /// per row, each at most its row index; see above).
  explicit Cholesky(const Mat& a, std::vector<std::size_t> first = {});

  /// Factors `a` again, in this object's storage: the same envelope, and no
  /// allocation when `a` has the previous shape. Stops at the first pivot
  /// that fails. Returns ok().
  bool refactor(const Mat& a);

  bool ok() const { return ok_; }
  const Mat& lower() const { return l_; }

  /// Solve A x = b.
  Vec solve(const Vec& b) const;
  /// Solve L y = b (forward substitution only).
  Vec solve_lower(const Vec& b) const;
  /// Solve L^T x = b (backward substitution only).
  Vec solve_lower_t(const Vec& b) const;
  /// Solve A X = B for every column of B at once; column j of the result
  /// has the bits solve(B.col(j)) gives.
  Mat solve(const Mat& b) const;

  /// Inverse of the lower factor, L^{-1} (used for SDP scaling matrices).
  Mat lower_inverse() const;

 private:
  /// Where row i's dot products may start: first[i] rounded down to a
  /// multiple of four (0 without an envelope).
  std::size_t start(std::size_t i) const {
    return first_.empty() ? 0 : first_[i] & ~std::size_t{3};
  }
  std::size_t first(std::size_t i) const {
    return first_.empty() ? 0 : first_[i];
  }
  void factor(const Mat& a);

  Mat l_;
  std::vector<std::size_t> first_;  // empty: dense
  std::vector<double> dots_;        // factor() scratch: one column's dots
  bool ok_ = false;
};

/// True when the symmetric matrix is positive definite.
bool is_positive_definite(const Mat& a);

}  // namespace scs
