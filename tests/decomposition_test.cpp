// Unit and property tests for Cholesky / QR / symmetric eigen.
#include <gtest/gtest.h>

#include "math/cholesky.hpp"
#include "math/eigen_sym.hpp"
#include "math/qr.hpp"
#include "util/rng.hpp"

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
