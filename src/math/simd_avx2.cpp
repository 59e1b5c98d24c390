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
// keeps those lanes per column and vectorises across columns instead. The
// MLP kernels and weighted_gram vectorise across independent outputs only,
// so each output element sees the scalar fallback's operations in its
// order.
#ifdef SCS_SIMD_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "math/simd.hpp"

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

// Lanes [0, k) of a vector at the end of a row, k = 1..3: masked-off lanes
// are neither read nor written.
inline __m256i tail_mask(std::size_t k) {
  return _mm256_setr_epi64x(-1, k > 1 ? -1 : 0, k > 2 ? -1 : 0, 0);
}

// One group of four columns of dot_columns, one dot lane per vector. A
// masked group holds the last one to three columns.
template <bool kMasked>
inline void dot_four_columns(double* o, const double* w, std::size_t n,
                             const double* xc, std::size_t cols,
                             __m256i mask) {
  const auto step = [mask](__m256d acc, double wj, const double* xj) {
    const __m256d xv =
        kMasked ? _mm256_maskload_pd(xj, mask) : _mm256_loadu_pd(xj);
    return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(wj), xv));
  };
  const std::size_t body = n & ~std::size_t{3};
  __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
  std::size_t j = 0;
  for (; j < body; j += 4) {
    const double* xj = xc + j * cols;
    a0 = step(a0, w[j], xj);
    a1 = step(a1, w[j + 1], xj + cols);
    a2 = step(a2, w[j + 2], xj + 2 * cols);
    a3 = step(a3, w[j + 3], xj + 3 * cols);
  }
  // Tail indices join the lane their index selects, as in dot_avx2.
  if (j < n) a0 = step(a0, w[j], xc + j * cols);
  if (j + 1 < n) a1 = step(a1, w[j + 1], xc + (j + 1) * cols);
  if (j + 2 < n) a2 = step(a2, w[j + 2], xc + (j + 2) * cols);
  if constexpr (kMasked)
    _mm256_maskstore_pd(o, mask, combine(a0, a1, a2, a3));
  else
    _mm256_storeu_pd(o, combine(a0, a1, a2, a3));
}

}  // namespace

void dot_columns_avx2(double* out, const double* w, std::size_t rows,
                      std::size_t n, const double* x, std::size_t cols) {
  // Each vector holds one dot lane of four columns, so lane j of column c
  // sees exactly the terms, order and combine of dot_avx2(w row, column c).
  const std::size_t body = n & ~std::size_t{3};
  const __m256i full = _mm256_set1_epi64x(-1);
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
    for (; c + 4 <= cols; c += 4)
      dot_four_columns<false>(o + c, w, n, x + c, cols, full);
    if (c < cols)
      dot_four_columns<true>(o + c, w, n, x + c, cols, tail_mask(cols - c));
  }
}

void dot_rows_avx2(double* out, const double* a, std::size_t lda,
                   std::size_t rows, const double* y, std::size_t n) {
  // Four rows at a time, one register of dot lanes each. The tail indices
  // join their lanes through a masked load, whose other lanes add +0 to a
  // lane sum that is never -0; a 4 x 4 transpose then lines the lanes up
  // so one vector combine gives each row (l0 + l1) + (l2 + l3).
  const std::size_t body = n & ~std::size_t{3};
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a + r * lda;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    __m256d s0 = _mm256_setzero_pd(), s1 = s0, s2 = s0, s3 = s0;
    for (std::size_t k = 0; k < body; k += 4) {
      const __m256d yv = _mm256_loadu_pd(y + k);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_loadu_pd(a0 + k), yv));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_loadu_pd(a1 + k), yv));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(_mm256_loadu_pd(a2 + k), yv));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(_mm256_loadu_pd(a3 + k), yv));
    }
    if (body < n) {
      const __m256i mask = tail_mask(n - body);
      const __m256d yv = _mm256_maskload_pd(y + body, mask);
      const auto tail = [&](__m256d acc, const double* row) {
        return _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_maskload_pd(row + body, mask), yv));
      };
      s0 = tail(s0, a0);
      s1 = tail(s1, a1);
      s2 = tail(s2, a2);
      s3 = tail(s3, a3);
    }
    // Transpose: lane k of every row into vector k.
    const __m256d t0 = _mm256_unpacklo_pd(s0, s1);  // s0[0] s1[0] s0[2] s1[2]
    const __m256d t1 = _mm256_unpackhi_pd(s0, s1);  // s0[1] s1[1] s0[3] s1[3]
    const __m256d t2 = _mm256_unpacklo_pd(s2, s3);
    const __m256d t3 = _mm256_unpackhi_pd(s2, s3);
    const __m256d l0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    _mm256_storeu_pd(out + r, combine(l0, l1, l2, l3));
  }
  for (; r < rows; ++r) out[r] = dot_avx2(a + r * lda, y, n);
}

namespace {

// One R x 4V tile of outer_accumulate: the tile stays in registers while
// every sample adds its products, in ascending sample order. A masked tile
// is one vector whose lanes past the row's end stay untouched.
template <int R, int V, bool kMasked>
inline void outer_tile(double* g, const double* d, const double* x,
                       std::size_t cols, std::size_t samples, __m256i mask) {
  static_assert(!kMasked || V == 1, "a masked tile is one vector wide");
  const auto load = [mask](const double* p) {
    if constexpr (kMasked) return _mm256_maskload_pd(p, mask);
    return _mm256_loadu_pd(p);
  };
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = load(g + r * cols + 4 * v);
  for (std::size_t b = 0; b < samples; ++b) {
    __m256d xv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) xv[v] = load(x + b * cols + 4 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d dr = _mm256_set1_pd(d[r * samples + b]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(dr, xv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if constexpr (kMasked)
        _mm256_maskstore_pd(g + r * cols + 4 * v, mask, acc[r][v]);
      else
        _mm256_storeu_pd(g + r * cols + 4 * v, acc[r][v]);
    }
}

// R rows of outer_accumulate: tiles of eight columns, then four, then one
// masked tile for the last one to three.
template <int R>
inline void outer_rows(double* g, const double* d, const double* x,
                       std::size_t cols, std::size_t samples) {
  const __m256i full = _mm256_set1_epi64x(-1);
  std::size_t c = 0;
  for (; c + 8 <= cols; c += 8)
    outer_tile<R, 2, false>(g + c, d, x + c, cols, samples, full);
  for (; c + 4 <= cols; c += 4)
    outer_tile<R, 1, false>(g + c, d, x + c, cols, samples, full);
  if (c < cols)
    outer_tile<R, 1, true>(g + c, d, x + c, cols, samples,
                           tail_mask(cols - c));
}

}  // namespace

void outer_accumulate_avx2(double* g, const double* d, std::size_t rows,
                           const double* x, std::size_t cols,
                           std::size_t samples) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4)
    outer_rows<4>(g + r * cols, d + r * samples, x, cols, samples);
  g += r * cols;
  d += r * samples;
  switch (rows - r) {
    case 3:
      outer_rows<3>(g, d, x, cols, samples);
      break;
    case 2:
      outer_rows<2>(g, d, x, cols, samples);
      break;
    case 1:
      outer_rows<1>(g, d, x, cols, samples);
      break;
    default:
      break;
  }
}

namespace {

// Columns [b, b + C) of weighted_gram for the `rows` (1..4) consecutive a
// from `a`, one per lane of `rm`: lane l of acc[c] holds g[(a + l) * n + b
// + c] while every sample adds d_l * x[s * n + b + c] to it, with
// d = w[s] * x[s * n + a + l]. kRhs adds d_l * y[s] to gy[a + l] too.
template <int C, bool kRhs>
inline void gram_tile(double* g, double* gy, const double* x, std::size_t n,
                      const double* w, const double* y, std::size_t samples,
                      std::size_t a, std::size_t rows, std::size_t b,
                      __m256i rm) {
  alignas(32) double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  __m256d acc[C > 0 ? C : 1];
#pragma GCC unroll 11
  for (int c = 0; c < C; ++c) {
    for (std::size_t l = 0; l < rows; ++l) lanes[l] = g[(a + l) * n + b + c];
    acc[c] = _mm256_load_pd(lanes);
  }
  __m256d accy = _mm256_setzero_pd();
  if constexpr (kRhs) accy = _mm256_maskload_pd(gy + a, rm);
  // One pointer per operand keeps every column at a fixed displacement.
  const double* xa = x + a;
  const double* xb = x + b;
  for (std::size_t s = 0; s < samples; ++s, xa += n, xb += n) {
    const __m256d d = _mm256_mul_pd(_mm256_broadcast_sd(w + s),
                                    _mm256_maskload_pd(xa, rm));
#pragma GCC unroll 11
    for (int c = 0; c < C; ++c)
      acc[c] = _mm256_add_pd(acc[c],
                             _mm256_mul_pd(d, _mm256_broadcast_sd(xb + c)));
    if constexpr (kRhs)
      accy = _mm256_add_pd(accy,
                           _mm256_mul_pd(d, _mm256_broadcast_sd(y + s)));
  }
#pragma GCC unroll 11
  for (int c = 0; c < C; ++c) {
    _mm256_store_pd(lanes, acc[c]);
    for (std::size_t l = 0; l < rows; ++l) g[(a + l) * n + b + c] = lanes[l];
  }
  if constexpr (kRhs) _mm256_maskstore_pd(gy + a, rm, accy);
}

template <bool kRhs, int... C>
void gram_columns(std::integer_sequence<int, C...>, double* g, double* gy,
                  const double* x, std::size_t n, const double* w,
                  const double* y, std::size_t samples, std::size_t a,
                  std::size_t rows, std::size_t b, std::size_t cols,
                  __m256i rm) {
  // One instantiation per column count; `cols` picks it.
  (void)((cols == C &&
          (gram_tile<C, kRhs>(g, gy, x, n, w, y, samples, a, rows, b, rm),
           true)) ||
         ...);
}

}  // namespace

void weighted_gram_avx2(double* g, double* gy, const double* x,
                        std::size_t n, const double* w, const double* y,
                        std::size_t samples, std::size_t a0, std::size_t a1,
                        std::size_t b0, std::size_t b1) {
  // Four a per register and up to eleven b at a time: eleven accumulators,
  // the rhs, d, one broadcast and the lane mask fill the sixteen registers,
  // and each sample adds to every accumulator once, so the more of them
  // the better the adds' latency is hidden. The rhs rides with the first
  // eleven b.
  constexpr std::size_t kCols = 11;
  const auto counts = std::make_integer_sequence<int, kCols + 1>();
  for (std::size_t a = a0; a < a1; a += 4) {
    const std::size_t rows = std::min<std::size_t>(4, a1 - a);
    const __m256i rm = rows == 4 ? _mm256_set1_epi64x(-1) : tail_mask(rows);
    const std::size_t first = std::min(kCols, b1 - b0);
    gram_columns<true>(counts, g, gy, x, n, w, y, samples, a, rows, b0,
                       first, rm);
    for (std::size_t b = b0 + first; b < b1; b += kCols)
      gram_columns<false>(counts, g, gy, x, n, w, y, samples, a, rows, b,
                          std::min(kCols, b1 - b), rm);
  }
}

void combine_rows_avx2(double* out, const double* w, std::size_t n,
                       const std::size_t* rows, const double* coef,
                       std::size_t count) {
  // Sixteen outputs stay in registers while every listed row adds its
  // product, in list order; then four at a time, then the last one to three
  // in a masked vector.
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d a0 = _mm256_loadu_pd(out + j), a1 = _mm256_loadu_pd(out + j + 4);
    __m256d a2 = _mm256_loadu_pd(out + j + 8);
    __m256d a3 = _mm256_loadu_pd(out + j + 12);
    for (std::size_t t = 0; t < count; ++t) {
      const __m256d s = _mm256_set1_pd(coef[t]);
      const double* row = w + rows[t] * n + j;
      a0 = lane_step(a0, s, row);
      a1 = lane_step(a1, s, row + 4);
      a2 = lane_step(a2, s, row + 8);
      a3 = lane_step(a3, s, row + 12);
    }
    _mm256_storeu_pd(out + j, a0);
    _mm256_storeu_pd(out + j + 4, a1);
    _mm256_storeu_pd(out + j + 8, a2);
    _mm256_storeu_pd(out + j + 12, a3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d a = _mm256_loadu_pd(out + j);
    for (std::size_t t = 0; t < count; ++t)
      a = lane_step(a, _mm256_set1_pd(coef[t]), w + rows[t] * n + j);
    _mm256_storeu_pd(out + j, a);
  }
  if (j < n) {
    const __m256i mask = tail_mask(n - j);
    __m256d a = _mm256_maskload_pd(out + j, mask);
    for (std::size_t t = 0; t < count; ++t)
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_set1_pd(coef[t]),
                                         _mm256_maskload_pd(
                                             w + rows[t] * n + j, mask)));
    _mm256_maskstore_pd(out + j, mask, a);
  }
}

void bias_activate_avx2(double* pre, double* post, double bias,
                        std::size_t n, bool relu) {
  // max(p, +0) returns its second operand when p is NaN or either zero, so
  // it is exactly `p > 0 ? p : 0`.
  const __m256d vb = _mm256_set1_pd(bias);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_add_pd(_mm256_loadu_pd(pre + i), vb);
    _mm256_storeu_pd(pre + i, p);
    _mm256_storeu_pd(post + i, relu ? _mm256_max_pd(p, zero) : p);
  }
  for (; i < n; ++i) {
    const double p = pre[i] + bias;
    pre[i] = p;
    post[i] = !relu ? p : (p > 0.0 ? p : 0.0);
  }
}

void relu_grad_avx2(double* d, const double* pre, std::size_t n) {
  // The ordered compare is false for NaN, like `pre > 0`; the mask selects
  // the factor 1 or 0 that the product then applies.
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d live =
        _mm256_cmp_pd(_mm256_loadu_pd(pre + i), zero, _CMP_GT_OQ);
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i),
                                          _mm256_and_pd(live, one)));
  }
  for (; i < n; ++i) d[i] *= pre[i] > 0.0 ? 1.0 : 0.0;
}

void adam_update_avx2(double* params, double* m, double* v,
                      const double* grad, std::size_t n,
                      const AdamStep& step) {
  const double c1 = 1.0 - step.beta1, c2 = 1.0 - step.beta2;
  const __m256d b1 = _mm256_set1_pd(step.beta1), b2 = _mm256_set1_pd(step.beta2);
  const __m256d vc1 = _mm256_set1_pd(c1), vc2 = _mm256_set1_pd(c2);
  const __m256d bias1 = _mm256_set1_pd(step.bias1);
  const __m256d bias2 = _mm256_set1_pd(step.bias2);
  const __m256d lr = _mm256_set1_pd(step.lr), eps = _mm256_set1_pd(step.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(vc1, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(vc2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bias1);
    const __m256d vhat = _mm256_div_pd(vi, bias2);
    const __m256d delta =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(params + i,
                     _mm256_sub_pd(_mm256_loadu_pd(params + i), delta));
  }
  for (; i < n; ++i) {
    m[i] = step.beta1 * m[i] + c1 * grad[i];
    v[i] = step.beta2 * v[i] + c2 * grad[i] * grad[i];
    const double mhat = m[i] / step.bias1;
    const double vhat = v[i] / step.bias2;
    params[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

}  // namespace scs::simd::detail

#endif  // SCS_SIMD_AVX2
