// Unit tests for the dense vector / matrix substrate.
#include <gtest/gtest.h>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#include "test_helpers.hpp"

namespace scs {
namespace {

TEST(Vec, BasicArithmetic) {
  Vec a{1.0, 2.0, 3.0};
  Vec b{4.0, -1.0, 0.5};
  Vec c = a + b;
  EXPECT_DOUBLE_EQ(c[0], 5.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(c[2], 3.5);
  c -= b;
  EXPECT_NEAR(max_abs_diff(c, a), 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 2.0 + 1.5);
}

TEST(Vec, NormAndScale) {
  Vec a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a.norm(), 10.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 8.0);
  EXPECT_DOUBLE_EQ(a.sum(), 14.0);
}

TEST(Vec, Axpy) {
  Vec a{1.0, 1.0};
  Vec b{2.0, -2.0};
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
}

TEST(Vec, SizeMismatchThrows) {
  Vec a{1.0};
  Vec b{1.0, 2.0};
  EXPECT_THROW(a += b, PreconditionError);
  EXPECT_THROW(dot(a, b), PreconditionError);
  EXPECT_THROW(a.at(3), PreconditionError);
}

TEST(Vec, Concat) {
  const Vec c = concat(Vec{1.0, 2.0}, Vec{3.0});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[2], 3.0);
}

TEST(Mat, IdentityAndDiag) {
  const Mat i3 = Mat::identity(3);
  EXPECT_DOUBLE_EQ(i3.trace(), 3.0);
  const Mat d = Mat::diag(Vec{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Mat, MatmulAgainstHandComputed) {
  Mat a(2, 3);
  a.set_row(0, Vec{1.0, 2.0, 3.0});
  a.set_row(1, Vec{0.0, -1.0, 1.0});
  Mat b(3, 2);
  b.set_row(0, Vec{1.0, 0.0});
  b.set_row(1, Vec{2.0, 1.0});
  b.set_row(2, Vec{-1.0, 2.0});
  const Mat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(c(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
}

TEST(Mat, TransposeProductsMatchExplicit) {
  Rng rng(3);
  Mat a(4, 3), b(4, 5);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 5; ++j) b(i, j) = rng.normal();
  EXPECT_NEAR(max_abs_diff(matmul_at_b(a, b), matmul(a.transpose(), b)), 0.0,
              1e-12);
  Mat c(3, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) c(i, j) = rng.normal();
  EXPECT_NEAR(max_abs_diff(matmul_a_bt(a, c.transpose()), matmul(a, c)), 0.0,
              1e-12);
}

TEST(Mat, MatvecVariants) {
  Mat a(2, 3);
  a.set_row(0, Vec{1.0, 2.0, 3.0});
  a.set_row(1, Vec{4.0, 5.0, 6.0});
  const Vec x{1.0, 0.0, -1.0};
  const Vec y = matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  const Vec z = matvec_t(a, Vec{1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Mat, SymmetrizeAndFrobenius) {
  Mat a(2, 2);
  a(0, 1) = 2.0;
  a(1, 0) = 0.0;
  a.symmetrize();
  EXPECT_DOUBLE_EQ(a(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(frob_inner(a, Mat::identity(2)), 0.0);
}

TEST(Mat, OuterProduct) {
  const Mat o = outer(Vec{1.0, 2.0}, Vec{3.0, 4.0});
  EXPECT_DOUBLE_EQ(o(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(o(0, 1), 4.0);
}

TEST(Mat, ShapeMismatchThrows) {
  Mat a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, PreconditionError);
  EXPECT_THROW(matmul(a, b), PreconditionError);
  EXPECT_THROW(Mat(2, 3).trace(), PreconditionError);
}

}  // namespace
}  // namespace scs
