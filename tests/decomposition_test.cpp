// Unit and property tests for Cholesky / QR / symmetric eigen.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "math/cholesky.hpp"
#include "math/eigen_sym.hpp"
#include "math/qr.hpp"
#include "math/robust_solve.hpp"
#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

Mat random_matrix(std::size_t n, std::size_t m, Rng& rng) {
  Mat a(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) a(i, j) = rng.normal();
  return a;
}

Mat random_spd(std::size_t n, Rng& rng) {
  const Mat a = random_matrix(n, n + 2, rng);
  Mat spd = matmul_a_bt(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(Cholesky, FactorsAndSolves) {
  Rng rng(7);
  const Mat a = random_spd(6, rng);
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Mat l = chol.lower();
  EXPECT_NEAR(max_abs_diff(matmul_a_bt(l, l), a), 0.0, 1e-9);
  const Vec b(rng.normal_vector(6));
  const Vec x = chol.solve(b);
  EXPECT_LT((matvec(a, x) - b).max_abs(), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  Mat a = Mat::identity(2);
  a(1, 1) = -1.0;
  EXPECT_FALSE(Cholesky(a).ok());
  EXPECT_FALSE(is_positive_definite(a));
}

TEST(Cholesky, LowerInverse) {
  Rng rng(9);
  const Mat a = random_spd(5, rng);
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Mat linv = chol.lower_inverse();
  EXPECT_NEAR(max_abs_diff(matmul(linv, chol.lower()), Mat::identity(5)), 0.0,
              1e-9);
  // S^{-1} = L^{-T} L^{-1}.
  const Mat ainv = matmul_at_b(linv, linv);
  EXPECT_NEAR(max_abs_diff(matmul(ainv, a), Mat::identity(5)), 0.0, 1e-8);
}

TEST(Cholesky, TriangularSolves) {
  Rng rng(11);
  const Mat a = random_spd(4, rng);
  Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  const Vec b(rng.normal_vector(4));
  const Vec y = chol.solve_lower(b);
  EXPECT_LT((matvec(chol.lower(), y) - b).max_abs(), 1e-10);
  const Vec z = chol.solve_lower_t(b);
  EXPECT_LT((matvec_t(chol.lower(), z) - b).max_abs(), 1e-10);
}

// ---- Envelope factor ---------------------------------------------------------
//
// A factor inside an envelope (Cholesky(a, first)) must keep the bits of the
// dense factor of the same matrix, on either SIMD kernel: the factor, both
// triangular solves, the multi-RHS solve, and robust_cholesky's shifted
// retries.

struct KernelGuard {
  explicit KernelGuard(simd::Kernel k) { simd::set_kernel_override(k); }
  ~KernelGuard() { simd::set_kernel_override(simd::Kernel::kAuto); }
};

std::vector<simd::Kernel> kernels() {
  std::vector<simd::Kernel> out{simd::Kernel::kScalar};
  if (simd::avx2_available()) out.push_back(simd::Kernel::kAvx2);
  return out;
}

bool bits_equal(const Mat& a, const Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.row_ptr(0), b.row_ptr(0),
                      a.rows() * a.cols() * sizeof(double)) == 0);
}

bool bits_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.begin(), b.begin(), a.size() * sizeof(double)) == 0);
}

/// Block-diagonal SPD matrix with blocks [starts[k], starts[k + 1]) and its
/// envelope: each row's block start.
Mat block_diagonal_spd(const std::vector<std::size_t>& starts, Rng& rng,
                       std::vector<std::size_t>* first) {
  const std::size_t n = starts.back();
  Mat a(n, n);
  first->assign(n, 0);
  for (std::size_t k = 0; k + 1 < starts.size(); ++k) {
    const std::size_t b0 = starts[k], size = starts[k + 1] - b0;
    const Mat block = random_spd(size, rng);
    for (std::size_t i = 0; i < size; ++i) {
      (*first)[b0 + i] = b0;
      for (std::size_t j = 0; j < size; ++j) a(b0 + i, b0 + j) = block(i, j);
    }
  }
  return a;
}

// Blocks start at 0, 3, 9, 10, 17 and 29; [9, 10) is a row with no
// off-diagonal entries, like the SOS program's normalization row.
const std::vector<std::size_t> kBlockStarts{0, 3, 9, 10, 17, 29, 36};

/// The factorization loop Cholesky ran before the envelope: one dot per
/// entry, left-looking.
Mat left_looking_factor(const Mat& a) {
  const std::size_t n = a.rows();
  Mat l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double djj = a(j, j) - simd::dot(l.row_ptr(j), l.row_ptr(j), j);
    l(j, j) = std::sqrt(djj);
    const double inv = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i)
      l(i, j) = (a(i, j) - simd::dot(l.row_ptr(i), l.row_ptr(j), j)) * inv;
  }
  return l;
}

TEST(CholeskyEnvelope, DenseFactorHasTheBitsOfTheLeftLookingLoop) {
  Rng rng(29);
  for (const simd::Kernel kernel : kernels()) {
    KernelGuard guard(kernel);
    for (const std::size_t n : {1, 2, 3, 4, 5, 7, 9, 16, 37}) {
      const Mat a = random_spd(n, rng);
      const Cholesky chol(a);
      ASSERT_TRUE(chol.ok());
      EXPECT_TRUE(bits_equal(chol.lower(), left_looking_factor(a)))
          << simd::active_kernel_name() << ": n " << n;
    }
  }
}

TEST(CholeskyEnvelope, FactorAndSolvesKeepTheDenseBits) {
  Rng rng(31);
  std::vector<std::size_t> first;
  const Mat a = block_diagonal_spd(kBlockStarts, rng, &first);
  const std::size_t n = a.rows();
  const Vec b(rng.normal_vector(n));
  Mat rhs = random_matrix(n, 5, rng);
  for (std::size_t i = 0; i < n; i += 3) rhs(i, 2) = 0.0;
  for (const simd::Kernel kernel : kernels()) {
    KernelGuard guard(kernel);
    const Cholesky dense(a);
    const Cholesky env(a, first);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(env.ok());
    EXPECT_TRUE(bits_equal(dense.lower(), env.lower()))
        << simd::active_kernel_name();
    EXPECT_TRUE(bits_equal(dense.solve_lower(b), env.solve_lower(b)));
    EXPECT_TRUE(bits_equal(dense.solve_lower_t(b), env.solve_lower_t(b)));
    EXPECT_TRUE(bits_equal(dense.solve(b), env.solve(b)));
    // The multi-RHS solve gives each column the bits of a one-column solve,
    // with and without the envelope.
    const Mat dense_all = dense.solve(rhs);
    const Mat env_all = env.solve(rhs);
    for (std::size_t j = 0; j < rhs.cols(); ++j) {
      const Vec one = dense.solve(rhs.col(j));
      EXPECT_TRUE(bits_equal(dense_all.col(j), one)) << "column " << j;
      EXPECT_TRUE(bits_equal(env_all.col(j), one)) << "column " << j;
    }
  }
}

TEST(CholeskyEnvelope, ShiftedRetriesUseTheEnvelope) {
  // One block is v v' - 1e-12 I: indefinite, so the first factorization
  // fails and robust_cholesky retries with a growing diagonal shift.
  Rng rng(37);
  std::vector<std::size_t> first;
  Mat a = block_diagonal_spd(kBlockStarts, rng, &first);
  const Vec v(rng.normal_vector(6));
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      a(3 + i, 3 + j) = v[i] * v[j] - (i == j ? 1e-12 : 0.0);
  for (const simd::Kernel kernel : kernels()) {
    KernelGuard guard(kernel);
    const RobustCholesky dense = robust_cholesky(a);
    const RobustCholesky env = robust_cholesky(a, first);
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(env.ok());
    EXPECT_GT(dense.factor_attempts, 1);
    EXPECT_EQ(env.factor_attempts, dense.factor_attempts);
    EXPECT_EQ(env.regularization, dense.regularization);
    EXPECT_TRUE(bits_equal(dense.factor.lower(), env.factor.lower()))
        << simd::active_kernel_name();
  }
}

TEST(CholeskyEnvelope, RefactorMatchesAFreshFactor) {
  Rng rng(41);
  std::vector<std::size_t> first;
  const Mat a = block_diagonal_spd(kBlockStarts, rng, &first);
  Mat indefinite = a;
  indefinite(20, 20) = -1.0;
  Cholesky env(indefinite, first);
  EXPECT_FALSE(env.ok());
  EXPECT_TRUE(env.refactor(a));  // after a failed factor of the same shape
  EXPECT_TRUE(bits_equal(env.lower(), Cholesky(a).lower()));
  Cholesky dense{Mat()};
  const Mat small = random_spd(5, rng);
  EXPECT_TRUE(dense.refactor(small));  // a new shape
  EXPECT_TRUE(bits_equal(dense.lower(), Cholesky(small).lower()));
  EXPECT_FALSE(dense.refactor(Mat::identity(5) * -1.0));
  EXPECT_TRUE(dense.refactor(small));
  EXPECT_TRUE(bits_equal(dense.lower(), Cholesky(small).lower()));
}

TEST(CholeskyEnvelope, RejectsAnEnvelopePastItsRow) {
  const Mat a = Mat::identity(3);
  EXPECT_THROW(Cholesky(a, {0, 2, 2}), PreconditionError);
  EXPECT_THROW(Cholesky(a, {0, 1}), PreconditionError);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  Rng rng(13);
  const Mat a = random_matrix(30, 5, rng);
  const Vec b(rng.normal_vector(30));
  const Vec x = least_squares(a, b);
  // Normal-equation residual must vanish: A'(Ax - b) = 0.
  const Vec g = matvec_t(a, matvec(a, x) - b);
  EXPECT_LT(g.max_abs(), 1e-9);
}

TEST(Qr, ExactSolveSquare) {
  Rng rng(17);
  const Mat a = random_matrix(6, 6, rng);
  const Vec xtrue(rng.normal_vector(6));
  const Vec b = matvec(a, xtrue);
  const Vec x = Qr(a).solve_least_squares(b);
  EXPECT_LT(max_abs_diff(x, xtrue), 1e-8);
}

TEST(Qr, RankDetectsDeficiency) {
  Mat a(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // dependent column
    a(i, 2) = (i == 0) ? 1.0 : 0.0;
  }
  EXPECT_EQ(Qr(a).rank(), 2u);
}

TEST(EigenSym, DiagonalMatrix) {
  const EigenSym e = eigen_sym(Mat::diag(Vec{3.0, 1.0, 2.0}));
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 2.0, 1e-10);
  EXPECT_NEAR(e.values[2], 3.0, 1e-10);
}

TEST(EigenSym, Known2x2) {
  Mat a(2, 2);
  a.set_row(0, Vec{2.0, 1.0});
  a.set_row(1, Vec{1.0, 2.0});
  const EigenSym e = eigen_sym(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  EXPECT_NEAR(min_eigenvalue(a), 1.0, 1e-10);
  EXPECT_NEAR(max_eigenvalue(a), 3.0, 1e-10);
}

class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, ReconstructsMatrix) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.index(10);
  Mat a = random_matrix(n, n, rng);
  a.symmetrize();
  const EigenSym e = eigen_sym(a);
  // A == V diag(lambda) V'.
  Mat rec(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const Vec vk = e.vectors.col(k);
    rec.axpy(e.values[k], outer(vk, vk));
  }
  EXPECT_NEAR(max_abs_diff(rec, a), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenProperty, ::testing::Range(1, 16));

TEST(EigenSym, PsdMatrixHasNonnegativeMinEig) {
  Rng rng(23);
  const Mat a = random_spd(7, rng);
  EXPECT_GT(min_eigenvalue(a), 0.0);
}

}  // namespace
}  // namespace scs
