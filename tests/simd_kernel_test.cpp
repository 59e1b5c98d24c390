// SIMD kernel equivalence.
//
// The SIMD contract (src/math/simd.hpp) is that the AVX2 and scalar paths
// are bitwise identical: elementwise kernels never use FMA, and `dot` uses
// the same four-lane accumulation in both implementations. These tests pin
// that contract directly (kernel vs kernel over ragged lengths) and
// end-to-end (a dense matmul forced through each path). The AVX2 halves
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

}  // namespace
}  // namespace scs
