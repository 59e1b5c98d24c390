// SIMD kernel equivalence.
//
// The SIMD contract (src/math/simd.hpp) is that the AVX2 and scalar paths
// are bitwise identical: elementwise kernels never use FMA, and `dot` uses
// the same four-lane accumulation in both implementations. These tests pin
// that contract directly (kernel vs kernel over ragged lengths), for the
// sample-blocked `dot_columns` against `dot` per column, and end-to-end (a
// dense matmul forced through each path). The AVX2 halves
// skip themselves on machines -- or SCS_SIMD=OFF builds -- without the
// vector kernels, so the same test binary runs everywhere.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "math/mat.hpp"
#include "math/simd.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> random_doubles(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Restores the CPU-detected kernel on scope exit so a failing ASSERT in
/// one test cannot leak a forced kernel into the next.
struct KernelGuard {
  explicit KernelGuard(simd::Kernel k) { simd::set_kernel_override(k); }
  ~KernelGuard() { simd::set_kernel_override(simd::Kernel::kAuto); }
};

// ---- SIMD-vs-scalar equivalence -------------------------------------------

class SimdEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::avx2_available())
      GTEST_SKIP() << "AVX2 kernels unavailable in this build";
  }
};

// Ragged lengths cover every remainder class of the 4-wide vector body,
// including the empty and sub-vector-width cases.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8,
                                    15, 16, 17, 31, 64, 67};

TEST_F(SimdEquivalence, ElementwiseKernelsBitwiseIdentical) {
  Rng rng(1);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> base = random_doubles(n, rng);
    const double s = rng.normal();

    auto run = [&](simd::Kernel k) {
      KernelGuard guard(k);
      std::vector<double> axpy_y = base, add_y = base, sub_y = base,
                          scale_y = base;
      simd::axpy(axpy_y.data(), s, x.data(), n);
      simd::add(add_y.data(), x.data(), n);
      simd::sub(sub_y.data(), x.data(), n);
      simd::scale(scale_y.data(), s, n);
      std::vector<double> out;
      for (const auto* v : {&axpy_y, &add_y, &sub_y, &scale_y})
        out.insert(out.end(), v->begin(), v->end());
      return out;
    };

    EXPECT_TRUE(bits_equal(run(simd::Kernel::kScalar),
                           run(simd::Kernel::kAvx2)))
        << "elementwise kernels diverge at n = " << n;
  }
}

TEST_F(SimdEquivalence, DotBitwiseIdenticalAcrossKernels) {
  Rng rng(2);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> y = random_doubles(n, rng);
    double scalar = 0.0, avx2 = 0.0;
    {
      KernelGuard guard(simd::Kernel::kScalar);
      scalar = simd::dot(x.data(), y.data(), n);
    }
    {
      KernelGuard guard(simd::Kernel::kAvx2);
      avx2 = simd::dot(x.data(), y.data(), n);
    }
    // Exact equality, not a tolerance: both paths implement the same
    // four-lane accumulation with the same (l0+l1)+(l2+l3) combine.
    EXPECT_EQ(scalar, avx2) << "dot diverges at n = " << n;
  }
}

TEST(SimdKernels, DotMatchesDocumentedLaneStructure) {
  // The contract in simd.hpp: lane j sums terms at indices == j (mod 4),
  // lanes combine as (l0 + l1) + (l2 + l3). Any kernel must reproduce this
  // bit for bit.
  Rng rng(3);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> y = random_doubles(n, rng);
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) lane[i % 4] += x[i] * y[i];
    const double expected = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    EXPECT_EQ(simd::dot(x.data(), y.data(), n), expected)
        << "lane structure violated at n = " << n;
  }
}

TEST_F(SimdEquivalence, DenseMatmulBitwiseIdentical) {
  // End-to-end: the matmul tiles funnel through axpy/dot, so a whole
  // product must match bit for bit across kernels (ragged size on purpose).
  const std::size_t n = 53;
  Rng rng(4);
  Mat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  auto flatten = [&](simd::Kernel k) {
    KernelGuard guard(k);
    const Mat c = matmul(a, b);
    std::vector<double> out;
    out.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) out.push_back(c(i, j));
    return out;
  };
  EXPECT_TRUE(bits_equal(flatten(simd::Kernel::kScalar),
                         flatten(simd::Kernel::kAvx2)));
}

// ---- dot_columns: the sample-blocked dot of the batched MLP pass ----------

// Every input width 1-9 (each lane tail) plus a wide one, against every
// column count 1-9 (each tail of the four- and eight-column blocks) plus a
// minibatch-sized one.
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 64};
constexpr std::size_t kColumns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 64};
constexpr std::size_t kRows = 3;

/// dot_columns(w, x) and, per output, simd::dot(w row, x column) on the
/// calling thread's kernel.
struct ColumnDots {
  std::vector<double> blocked, per_dot;
};

ColumnDots column_dots(const std::vector<double>& w,
                       const std::vector<double>& x, std::size_t n,
                       std::size_t cols) {
  ColumnDots out{std::vector<double>(kRows * cols),
                 std::vector<double>(kRows * cols)};
  simd::dot_columns(out.blocked.data(), w.data(), kRows, n, x.data(), cols);
  std::vector<double> column(n);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t j = 0; j < n; ++j) column[j] = x[j * cols + c];
    for (std::size_t r = 0; r < kRows; ++r)
      out.per_dot[r * cols + c] = simd::dot(w.data() + r * n, column.data(), n);
  }
  return out;
}

TEST(SimdKernels, DotColumnsHasTheBitsOfDotPerColumn) {
  // On the default kernel, so SCS_SIMD=OFF builds check the scalar path.
  Rng rng(5);
  for (const std::size_t n : kWidths)
    for (const std::size_t cols : kColumns) {
      const std::vector<double> w = random_doubles(kRows * n, rng);
      const std::vector<double> x = random_doubles(n * cols, rng);
      const ColumnDots d = column_dots(w, x, n, cols);
      EXPECT_TRUE(bits_equal(d.blocked, d.per_dot))
          << "n = " << n << ", cols = " << cols;
    }
}

TEST_F(SimdEquivalence, DotColumnsBitwiseIdenticalAcrossKernels) {
  Rng rng(6);
  for (const std::size_t n : kWidths)
    for (const std::size_t cols : kColumns) {
      const std::vector<double> w = random_doubles(kRows * n, rng);
      const std::vector<double> x = random_doubles(n * cols, rng);
      ColumnDots scalar, avx2;
      {
        KernelGuard guard(simd::Kernel::kScalar);
        scalar = column_dots(w, x, n, cols);
      }
      {
        KernelGuard guard(simd::Kernel::kAvx2);
        avx2 = column_dots(w, x, n, cols);
      }
      EXPECT_TRUE(bits_equal(scalar.blocked, avx2.blocked))
          << "dot_columns diverges at n = " << n << ", cols = " << cols;
      EXPECT_TRUE(bits_equal(scalar.blocked, scalar.per_dot))
          << "scalar dot_columns != dot at n = " << n << ", cols = " << cols;
      EXPECT_TRUE(bits_equal(avx2.blocked, avx2.per_dot))
          << "AVX2 dot_columns != dot at n = " << n << ", cols = " << cols;
    }
}

}  // namespace
}  // namespace scs
