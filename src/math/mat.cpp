#include "math/mat.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace scs {

Mat::Mat(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Mat Mat::identity(std::size_t n) {
  Mat out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Mat Mat::diag(const Vec& d) {
  Mat out(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) out(i, i) = d[i];
  return out;
}

double& Mat::at(std::size_t i, std::size_t j) {
  SCS_REQUIRE(i < rows_ && j < cols_, "Mat::at: index out of range");
  return (*this)(i, j);
}

double Mat::at(std::size_t i, std::size_t j) const {
  SCS_REQUIRE(i < rows_ && j < cols_, "Mat::at: index out of range");
  return (*this)(i, j);
}

Mat& Mat::operator+=(const Mat& rhs) {
  SCS_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
              "Mat::operator+=: shape mismatch");
  simd::add(data_.data(), rhs.data_.data(), data_.size());
  return *this;
}

Mat& Mat::operator-=(const Mat& rhs) {
  SCS_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
              "Mat::operator-=: shape mismatch");
  simd::sub(data_.data(), rhs.data_.data(), data_.size());
  return *this;
}

Mat& Mat::operator*=(double s) {
  simd::scale(data_.data(), s, data_.size());
  return *this;
}

Mat& Mat::axpy(double s, const Mat& rhs) {
  SCS_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
              "Mat::axpy: shape mismatch");
  simd::axpy(data_.data(), s, rhs.data_.data(), data_.size());
  return *this;
}

Mat Mat::transpose() const {
  Mat out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

double Mat::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Mat::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Mat::trace() const {
  SCS_REQUIRE(rows_ == cols_, "Mat::trace: matrix must be square");
  double acc = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) acc += (*this)(i, i);
  return acc;
}

void Mat::symmetrize() {
  SCS_REQUIRE(rows_ == cols_, "Mat::symmetrize: matrix must be square");
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = i + 1; j < cols_; ++j) {
      const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
      (*this)(i, j) = v;
      (*this)(j, i) = v;
    }
}

Vec Mat::col(std::size_t j) const {
  SCS_REQUIRE(j < cols_, "Mat::col: index out of range");
  Vec out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

Vec Mat::row(std::size_t i) const {
  SCS_REQUIRE(i < rows_, "Mat::row: index out of range");
  Vec out(cols_);
  for (std::size_t j = 0; j < cols_; ++j) out[j] = (*this)(i, j);
  return out;
}

void Mat::set_row(std::size_t i, const Vec& v) {
  SCS_REQUIRE(i < rows_ && v.size() == cols_, "Mat::set_row: shape mismatch");
  for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = v[j];
}

std::string Mat::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j) os << ", ";
      os << (*this)(i, j);
    }
    os << (i + 1 == rows_ ? "]" : ";\n");
  }
  return os.str();
}

Mat operator+(Mat lhs, const Mat& rhs) { return lhs += rhs; }
Mat operator-(Mat lhs, const Mat& rhs) { return lhs -= rhs; }
Mat operator*(double s, Mat m) { return m *= s; }
Mat operator*(Mat m, double s) { return m *= s; }

namespace {

// Tiling for the dense kernels: output rows are farmed out to the pool in
// fixed kRowChunk blocks (a pure function of the shape, never of the worker
// count) and the summation index is swept in kInnerBlock panels so the
// streamed operand stays cache-resident across a chunk's rows. Per output
// element the contributions accumulate in ascending-k order in every
// configuration, so tiled, parallel, and plain loops produce bitwise-
// identical sums.
constexpr std::size_t kRowChunk = 32;
constexpr std::size_t kInnerBlock = 64;
// Below this flop count the chunk loop runs inline: the fork/join handshake
// costs more than the multiply.
constexpr std::size_t kParallelFlops = std::size_t{1} << 15;

bool all_zero(const double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (p[i] != 0.0) return false;
  return true;
}

template <typename Body>
void for_each_row_block(std::size_t rows, std::size_t flops,
                        const Body& body) {
  if (flops < kParallelFlops) {
    body(0, rows);
    return;
  }
  parallel_for(rows, kRowChunk, body);
}

}  // namespace

Mat matmul(const Mat& a, const Mat& b) {
  SCS_REQUIRE(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  Mat out(a.rows(), b.cols());
  const std::size_t kk = a.cols();
  const std::size_t nn = b.cols();
  for_each_row_block(
      a.rows(), a.rows() * kk * nn, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t k0 = 0; k0 < kk; k0 += kInnerBlock) {
          const std::size_t k1 = std::min(k0 + kInnerBlock, kk);
          for (std::size_t i = r0; i < r1; ++i) {
            const double* a_row = a.row_ptr(i);
            // Density handling lives at the tile level: skip a panel only
            // when this row's whole A slice is zero (identity-like blocks);
            // a per-element zero test mispredicts on dense data.
            if (all_zero(a_row + k0, k1 - k0)) continue;
            double* out_row = out.row_ptr(i);
            for (std::size_t k = k0; k < k1; ++k) {
              const double aik = a_row[k];
              const double* b_row = b.row_ptr(k);
              simd::axpy(out_row, aik, b_row, nn);
            }
          }
        }
      });
  return out;
}

Mat matmul_at_b(const Mat& a, const Mat& b) {
  SCS_REQUIRE(a.rows() == b.rows(), "matmul_at_b: dimension mismatch");
  Mat out(a.cols(), b.cols());
  const std::size_t kk = a.rows();
  const std::size_t nn = b.cols();
  for_each_row_block(
      a.cols(), a.cols() * kk * nn, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t k0 = 0; k0 < kk; k0 += kInnerBlock) {
          const std::size_t k1 = std::min(k0 + kInnerBlock, kk);
          for (std::size_t i = r0; i < r1; ++i) {
            double* out_row = out.row_ptr(i);
            for (std::size_t k = k0; k < k1; ++k) {
              const double aki = a(k, i);
              const double* b_row = b.row_ptr(k);
              simd::axpy(out_row, aki, b_row, nn);
            }
          }
        }
      });
  return out;
}

Mat matmul_a_bt(const Mat& a, const Mat& b) {
  SCS_REQUIRE(a.cols() == b.cols(), "matmul_a_bt: dimension mismatch");
  Mat out(a.rows(), b.rows());
  const std::size_t kk = a.cols();
  const std::size_t nn = b.rows();
  for_each_row_block(
      a.rows(), a.rows() * kk * nn, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          const double* a_row = a.row_ptr(i);
          double* out_row = out.row_ptr(i);
          for (std::size_t j = 0; j < nn; ++j)
            out_row[j] = simd::dot(a_row, b.row_ptr(j), kk);
        }
      });
  return out;
}

Vec matvec(const Mat& a, const Vec& x) {
  SCS_REQUIRE(a.cols() == x.size(), "matvec: dimension mismatch");
  Vec out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    out[i] = simd::dot(a.row_ptr(i), x.begin(), a.cols());
  return out;
}

Vec matvec_t(const Mat& a, const Vec& x) {
  SCS_REQUIRE(a.rows() == x.size(), "matvec_t: dimension mismatch");
  Vec out(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    simd::axpy(out.begin(), xi, a.row_ptr(i), a.cols());
  }
  return out;
}

Mat outer(const Vec& a, const Vec& b) {
  Mat out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out(i, j) = a[i] * b[j];
  return out;
}

double frob_inner(const Mat& a, const Mat& b) {
  SCS_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
              "frob_inner: shape mismatch");
  // One flat four-lane dot over the contiguous storage: rows of a row-major
  // matrix are adjacent, so this is the same term set in lane order.
  return simd::dot(a.row_ptr(0), b.row_ptr(0), a.rows() * a.cols());
}

}  // namespace scs
