// AVX2 kernels. This translation unit is the only one compiled with -mavx2,
// and every function is reached solely through the runtime dispatch in
// simd.cpp after a __builtin_cpu_supports("avx2") check, so the rest of the
// binary stays runnable on plain SSE2 hardware.
//
// Bitwise contract (see simd.hpp): elementwise kernels use separate mul and
// add -- no FMA -- so they reproduce the scalar fallback exactly; `dot`
// keeps four independent lanes (lane j sums indices == j mod 4) and
// combines them with scalar adds in the fixed order (l0 + l1) + (l2 + l3),
// matching the scalar fallback's lane structure bit for bit. `dot_columns`
// keeps those lanes per column and vectorises across columns instead.
#ifdef SCS_SIMD_AVX2

#include <immintrin.h>

#include <cstddef>

namespace scs::simd::detail {

void axpy_avx2(double* y, double s, const double* x, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(vs, vx)));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void add_avx2(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, vx));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void sub_avx2(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_sub_pd(vy, vx));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void scale_avx2(double* y, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_mul_pd(vy, vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  // Tail terms join the lane their index selects, then the lanes combine
  // with scalar adds in the same order as the scalar fallback.
  if (i < n) lane[0] += x[i] * y[i];
  if (i + 1 < n) lane[1] += x[i + 1] * y[i + 1];
  if (i + 2 < n) lane[2] += x[i + 2] * y[i + 2];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

namespace {

// acc += w * x[0..4): one dot lane of four adjacent columns.
inline __m256d lane_step(__m256d acc, __m256d w, const double* x) {
  return _mm256_add_pd(acc, _mm256_mul_pd(w, _mm256_loadu_pd(x)));
}

inline __m256d combine(__m256d l0, __m256d l1, __m256d l2, __m256d l3) {
  return _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
}

}  // namespace

void dot_columns_avx2(double* out, const double* w, std::size_t rows,
                      std::size_t n, const double* x, std::size_t cols) {
  // Each vector holds one dot lane of four columns, so lane j of column c
  // sees exactly the terms, order and combine of dot_avx2(w row, column c).
  const std::size_t body = n & ~std::size_t{3};
  for (std::size_t r = 0; r < rows; ++r, w += n) {
    double* o = out + r * cols;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const double* xc = x + c;
      __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
      __m256d b0 = a0, b1 = a0, b2 = a0, b3 = a0;
      std::size_t j = 0;
      for (; j < body; j += 4) {
        const double* xj = xc + j * cols;
        __m256d wj = _mm256_set1_pd(w[j]);
        a0 = lane_step(a0, wj, xj);
        b0 = lane_step(b0, wj, xj + 4);
        wj = _mm256_set1_pd(w[j + 1]);
        a1 = lane_step(a1, wj, xj + cols);
        b1 = lane_step(b1, wj, xj + cols + 4);
        wj = _mm256_set1_pd(w[j + 2]);
        a2 = lane_step(a2, wj, xj + 2 * cols);
        b2 = lane_step(b2, wj, xj + 2 * cols + 4);
        wj = _mm256_set1_pd(w[j + 3]);
        a3 = lane_step(a3, wj, xj + 3 * cols);
        b3 = lane_step(b3, wj, xj + 3 * cols + 4);
      }
      // Tail indices join the lane their index selects, as in dot_avx2.
      if (j < n) {
        const __m256d wj = _mm256_set1_pd(w[j]);
        a0 = lane_step(a0, wj, xc + j * cols);
        b0 = lane_step(b0, wj, xc + j * cols + 4);
      }
      if (j + 1 < n) {
        const __m256d wj = _mm256_set1_pd(w[j + 1]);
        a1 = lane_step(a1, wj, xc + (j + 1) * cols);
        b1 = lane_step(b1, wj, xc + (j + 1) * cols + 4);
      }
      if (j + 2 < n) {
        const __m256d wj = _mm256_set1_pd(w[j + 2]);
        a2 = lane_step(a2, wj, xc + (j + 2) * cols);
        b2 = lane_step(b2, wj, xc + (j + 2) * cols + 4);
      }
      _mm256_storeu_pd(o + c, combine(a0, a1, a2, a3));
      _mm256_storeu_pd(o + c + 4, combine(b0, b1, b2, b3));
    }
    for (; c + 4 <= cols; c += 4) {
      const double* xc = x + c;
      __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
      std::size_t j = 0;
      for (; j < body; j += 4) {
        const double* xj = xc + j * cols;
        a0 = lane_step(a0, _mm256_set1_pd(w[j]), xj);
        a1 = lane_step(a1, _mm256_set1_pd(w[j + 1]), xj + cols);
        a2 = lane_step(a2, _mm256_set1_pd(w[j + 2]), xj + 2 * cols);
        a3 = lane_step(a3, _mm256_set1_pd(w[j + 3]), xj + 3 * cols);
      }
      if (j < n) a0 = lane_step(a0, _mm256_set1_pd(w[j]), xc + j * cols);
      if (j + 1 < n)
        a1 = lane_step(a1, _mm256_set1_pd(w[j + 1]), xc + (j + 1) * cols);
      if (j + 2 < n)
        a2 = lane_step(a2, _mm256_set1_pd(w[j + 2]), xc + (j + 2) * cols);
      _mm256_storeu_pd(o + c, combine(a0, a1, a2, a3));
    }
    // Columns past the last group of four: the scalar lane order.
    for (; c < cols; ++c) {
      const double* xc = x + c;
      double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
      std::size_t j = 0;
      for (; j < body; j += 4) {
        l0 += w[j] * xc[j * cols];
        l1 += w[j + 1] * xc[(j + 1) * cols];
        l2 += w[j + 2] * xc[(j + 2) * cols];
        l3 += w[j + 3] * xc[(j + 3) * cols];
      }
      if (j < n) l0 += w[j] * xc[j * cols];
      if (j + 1 < n) l1 += w[j + 1] * xc[(j + 1) * cols];
      if (j + 2 < n) l2 += w[j + 2] * xc[(j + 2) * cols];
      o[c] = (l0 + l1) + (l2 + l3);
    }
  }
}

}  // namespace scs::simd::detail

#endif  // SCS_SIMD_AVX2
