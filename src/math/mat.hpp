// Dense row-major matrix.
//
// Sized for this project's workloads: NN layers (tens), Gram matrices
// (up to a few hundred), and interior-point Schur complements (up to a few
// thousand). All algorithms here are cache-friendly straight loops; no BLAS.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "math/vec.hpp"

namespace scs {

class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols, double value = 0.0);

  static Mat identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Mat diag(const Vec& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Bounds-checked access.
  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// Raw pointer to row i (row-major storage).
  double* row_ptr(std::size_t i) { return data_.data() + i * cols_; }
  const double* row_ptr(std::size_t i) const {
    return data_.data() + i * cols_;
  }

  Mat& operator+=(const Mat& rhs);
  Mat& operator-=(const Mat& rhs);
  Mat& operator*=(double s);

  /// this += s * rhs.
  Mat& axpy(double s, const Mat& rhs);

  Mat transpose() const;

  /// Frobenius norm.
  double frobenius_norm() const;
  /// Maximum absolute entry.
  double max_abs() const;
  /// Trace (must be square).
  double trace() const;

  /// Symmetrize in place: A <- (A + A^T)/2 (must be square).
  void symmetrize();

  /// Column j as a vector.
  Vec col(std::size_t j) const;
  /// Row i as a vector.
  Vec row(std::size_t i) const;
  void set_row(std::size_t i, const Vec& v);

  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Mat operator+(Mat lhs, const Mat& rhs);
Mat operator-(Mat lhs, const Mat& rhs);
Mat operator*(double s, Mat m);
Mat operator*(Mat m, double s);

/// Matrix-matrix product.
Mat matmul(const Mat& a, const Mat& b);
/// a^T * b without forming the transpose.
Mat matmul_at_b(const Mat& a, const Mat& b);
/// a * b^T without forming the transpose.
Mat matmul_a_bt(const Mat& a, const Mat& b);

/// Matrix-vector product.
Vec matvec(const Mat& a, const Vec& x);
/// a^T * x without forming the transpose.
Vec matvec_t(const Mat& a, const Vec& x);

/// Outer product a * b^T.
Mat outer(const Vec& a, const Vec& b);

/// <A, B> = sum_ij A_ij B_ij (Frobenius inner product).
double frob_inner(const Mat& a, const Mat& b);

}  // namespace scs
