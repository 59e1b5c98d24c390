// SIMD kernel equivalence.
//
// The SIMD contract (src/math/simd.hpp) is that the AVX2 and scalar paths
// are bitwise identical: elementwise kernels never use FMA, and `dot` uses
// the same four-lane accumulation in both implementations. These tests pin
// that contract directly (kernel vs kernel over ragged lengths), for the
// sample-blocked `dot_columns` against `dot` per column, for the MLP,
// Adam and normal-equation kernels against the loops they replaced, and
// end-to-end (a dense matmul forced through each path). The AVX2 halves
// skip themselves on machines -- or SCS_SIMD=OFF builds -- without the
// vector kernels, so the same test binary runs everywhere.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
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

// ---- The MLP and Adam kernels against the loops they replaced --------------
//
// Each kernel runs on the scalar kernel and, where available, on AVX2; both
// must give exactly the bits of the reference loop, itself run on the same
// kernel (the loops called axpy and add).

std::vector<simd::Kernel> kernels_to_check() {
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  return kernels;
}

// Layer widths 1-9 (every tail of the eight- and four-wide tiles), 16 and
// 64, and batches of 1-5 and 64 samples.
constexpr std::size_t kLayerWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64};
constexpr std::size_t kBatches[] = {1, 2, 3, 4, 5, 64};

TEST(SimdKernels, DotRowsHasTheBitsOfDotPerRow) {
  Rng rng(12);
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t rows : kLayerWidths)
      for (const std::size_t n : kLengths) {
        const std::size_t lda = n + 3;  // rows of a wider matrix
        const std::vector<double> a = random_doubles(rows * lda, rng);
        const std::vector<double> y = random_doubles(n, rng);
        std::vector<double> expected(rows), got(rows);
        for (std::size_t r = 0; r < rows; ++r)
          expected[r] = simd::dot(a.data() + r * lda, y.data(), n);
        simd::dot_rows(got.data(), a.data(), lda, rows, y.data(), n);
        EXPECT_TRUE(bits_equal(got, expected))
            << simd::active_kernel_name() << ": rows " << rows << ", n " << n;
      }
  }
}

TEST(SimdKernels, OuterAccumulateHasTheBitsOfPerSampleAxpys) {
  Rng rng(7);
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t rows : kLayerWidths)
      for (const std::size_t cols : kLayerWidths)
        for (const std::size_t samples : kBatches) {
          const std::vector<double> g0 = random_doubles(rows * cols, rng);
          const std::vector<double> d = random_doubles(rows * samples, rng);
          const std::vector<double> x = random_doubles(samples * cols, rng);
          // The replaced loop: one axpy per sample and row.
          std::vector<double> expected = g0;
          for (std::size_t b = 0; b < samples; ++b)
            for (std::size_t r = 0; r < rows; ++r)
              simd::axpy(expected.data() + r * cols, d[r * samples + b],
                         x.data() + b * cols, cols);
          std::vector<double> got = g0;
          simd::outer_accumulate(got.data(), d.data(), rows, x.data(), cols,
                                 samples);
          EXPECT_TRUE(bits_equal(got, expected))
              << simd::active_kernel_name() << ": rows " << rows << ", cols "
              << cols << ", samples " << samples;
        }
  }
}

TEST(SimdKernels, WeightedGramHasTheBitsOfThePlainLoop) {
  // Every row and column range shape: one to four rows and full groups of
  // four, column ranges inside, across and past an eleven-column tile, an
  // empty one (rhs only), and samples with zero weight.
  Rng rng(13);
  constexpr std::size_t kDims[] = {1, 2, 3, 4, 5, 6, 9, 10, 13, 16, 25};
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t n : kDims)
      for (const std::size_t samples : kBatches) {
        const std::vector<double> x = random_doubles(samples * n, rng);
        const std::vector<double> y = random_doubles(samples, rng);
        std::vector<double> w = random_doubles(samples, rng);
        for (std::size_t s = 0; s < samples; s += 3) w[s] = 0.0;
        const std::size_t ranges[][4] = {{0, n, 0, n},
                                         {0, std::min<std::size_t>(n, 4), 0, n},
                                         {n / 2, n, n / 2, n},
                                         {n - 1, n, 0, n},
                                         {0, n, n, n},
                                         {n / 3, n, 1 % n, n - n / 4}};
        for (const auto& range : ranges) {
          const std::size_t a0 = range[0], a1 = range[1];
          const std::size_t b0 = range[2], b1 = range[3];
          const std::vector<double> g0 = random_doubles(n * n, rng);
          const std::vector<double> gy0 = random_doubles(n, rng);
          std::vector<double> expected = g0, expected_gy = gy0;
          for (std::size_t s = 0; s < samples; ++s)
            for (std::size_t a = a0; a < a1; ++a) {
              const double d = w[s] * x[s * n + a];
              for (std::size_t b = b0; b < b1; ++b)
                expected[a * n + b] += d * x[s * n + b];
              expected_gy[a] += d * y[s];
            }
          std::vector<double> got = g0, got_gy = gy0;
          simd::weighted_gram(got.data(), got_gy.data(), x.data(), n,
                              w.data(), y.data(), samples, a0, a1, b0, b1);
          EXPECT_TRUE(bits_equal(got, expected) &&
                      bits_equal(got_gy, expected_gy))
              << simd::active_kernel_name() << ": n " << n << ", samples "
              << samples << ", rows [" << a0 << ", " << a1 << "), cols ["
              << b0 << ", " << b1 << ")";
        }
      }
  }
}

TEST(SimdKernels, CombineRowsHasTheBitsOfLiveUnitAxpys) {
  Rng rng(8);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t units : kLayerWidths)
      for (const std::size_t n : kLayerWidths)
        for (const std::size_t samples : kBatches) {
          std::vector<double> w = random_doubles(units * n, rng);
          std::vector<double> delta = random_doubles(units * samples, rng);
          // Every third unit is dead in every sample, and a dead unit's row
          // holds a NaN that a product with its zero gradient would spread.
          for (std::size_t i = 0; i < units; i += 3) {
            for (std::size_t b = 0; b < samples; ++b)
              delta[i * samples + b] = 0.0;
            w[i * n + n / 2] = nan;
          }
          for (std::size_t b = 0; b < samples; ++b) {
            std::vector<std::size_t> live;
            std::vector<double> coef;
            for (std::size_t i = 0; i < units; ++i)
              if (delta[i * samples + b] != 0.0) {
                live.push_back(i);
                coef.push_back(delta[i * samples + b]);
              }
            // The replaced loop: zero, then one axpy per live unit.
            std::vector<double> expected(n, 0.0);
            for (std::size_t t = 0; t < live.size(); ++t)
              simd::axpy(expected.data(), coef[t], w.data() + live[t] * n, n);
            std::vector<double> got(n, 0.0);
            simd::combine_rows(got.data(), w.data(), n, live.data(),
                               coef.data(), live.size());
            EXPECT_TRUE(bits_equal(got, expected))
                << simd::active_kernel_name() << ": units " << units
                << ", n " << n << ", sample " << b;
            for (const double v : got) EXPECT_TRUE(std::isfinite(v));
          }
        }
  }
}

TEST(SimdKernels, CombineRowsAddsOntoOutInListOrder) {
  // The back-substitution use: a nonzero start and rows listed in
  // descending order, against one axpy per listed row.
  Rng rng(13);
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t units : kLayerWidths)
      for (const std::size_t n : kLayerWidths) {
        const std::vector<double> w = random_doubles(units * n, rng);
        const std::vector<double> start = random_doubles(n, rng);
        std::vector<std::size_t> rows;
        std::vector<double> coef;
        for (std::size_t i = units; i-- > 0;) {
          rows.push_back(i);
          coef.push_back(rng.normal());
        }
        std::vector<double> expected = start;
        for (std::size_t t = 0; t < rows.size(); ++t)
          simd::axpy(expected.data(), coef[t], w.data() + rows[t] * n, n);
        std::vector<double> got = start;
        simd::combine_rows(got.data(), w.data(), n, rows.data(), coef.data(),
                           rows.size());
        EXPECT_TRUE(bits_equal(got, expected))
            << simd::active_kernel_name() << ": units " << units << ", n "
            << n;
      }
  }
}

/// Pre-activations with the values that tell max() from a compare apart.
std::vector<double> awkward_values(std::size_t n, Rng& rng) {
  std::vector<double> v = random_doubles(n, rng);
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity(), -1e-310};
  for (std::size_t i = 0; i < n; i += 2) v[i] = specials[(i / 2) % 6];
  return v;
}

TEST(SimdKernels, BiasActivateHasTheBitsOfTheCompareLoop) {
  Rng rng(9);
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t n : kLengths)
      for (const bool relu : {false, true}) {
        const std::vector<double> pre0 = awkward_values(n, rng);
        const double bias = n % 2 == 0 ? 0.0 : rng.normal();
        // The replaced loop: add the bias, then `p > 0 ? p : 0` or a copy.
        std::vector<double> pre_expected = pre0, post_expected(n);
        for (std::size_t i = 0; i < n; ++i) {
          pre_expected[i] += bias;
          const double p = pre_expected[i];
          post_expected[i] = relu ? (p > 0.0 ? p : 0.0) : p;
        }
        std::vector<double> pre = pre0, post(n, 7.0);
        simd::bias_activate(pre.data(), post.data(), bias, n, relu);
        EXPECT_TRUE(bits_equal(pre, pre_expected))
            << simd::active_kernel_name() << ": n " << n;
        EXPECT_TRUE(bits_equal(post, post_expected))
            << simd::active_kernel_name() << ": n " << n << ", relu " << relu;
      }
  }
}

TEST(SimdKernels, ReluGradHasTheBitsOfTheDerivativeProduct) {
  Rng rng(10);
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t n : kLengths) {
      const std::vector<double> pre = awkward_values(n, rng);
      std::vector<double> d0 = awkward_values(n, rng);
      std::vector<double> expected = d0;
      for (std::size_t i = 0; i < n; ++i)
        expected[i] *= pre[i] > 0.0 ? 1.0 : 0.0;
      std::vector<double> got = d0;
      simd::relu_grad(got.data(), pre.data(), n);
      EXPECT_TRUE(bits_equal(got, expected))
          << simd::active_kernel_name() << ": n " << n;
    }
  }
}

TEST(SimdKernels, AdamUpdateHasTheBitsOfTheScalarStep) {
  Rng rng(11);
  simd::AdamStep step;
  step.beta1 = 0.9;
  step.beta2 = 0.999;
  step.bias1 = 1.0 - std::pow(0.9, 3.0);
  step.bias2 = 1.0 - std::pow(0.999, 3.0);
  step.lr = 1e-3;
  step.eps = 1e-8;
  for (const simd::Kernel kernel : kernels_to_check()) {
    KernelGuard guard(kernel);
    for (const std::size_t n : kLengths) {
      const std::vector<double> p0 = random_doubles(n, rng);
      const std::vector<double> g = random_doubles(n, rng);
      std::vector<double> m0 = random_doubles(n, rng), v0(n);
      for (double& v : v0) v = std::fabs(rng.normal());
      // The replaced loop (Adam::update before the kernel).
      std::vector<double> p = p0, m = m0, v = v0;
      for (std::size_t i = 0; i < n; ++i) {
        m[i] = step.beta1 * m[i] + (1.0 - step.beta1) * g[i];
        v[i] = step.beta2 * v[i] + (1.0 - step.beta2) * g[i] * g[i];
        const double mhat = m[i] / step.bias1;
        const double vhat = v[i] / step.bias2;
        p[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
      }
      std::vector<double> pk = p0, mk = m0, vk = v0;
      simd::adam_update(pk.data(), mk.data(), vk.data(), g.data(), n, step);
      EXPECT_TRUE(bits_equal(pk, p)) << simd::active_kernel_name() << " " << n;
      EXPECT_TRUE(bits_equal(mk, m)) << simd::active_kernel_name() << " " << n;
      EXPECT_TRUE(bits_equal(vk, v)) << simd::active_kernel_name() << " " << n;
    }
  }
}

}  // namespace
}  // namespace scs
