// Portable kernel implementations and the runtime dispatch switch.
//
// The scalar `dot`, `dot_columns` and `dot_rows` mirror the AVX2 lane
// structure exactly (four accumulators, fixed combine order); the MLP and Adam
// kernels give each element the same operations in the same order -- see
// simd.hpp for the contract.
#include "math/simd.hpp"

#include <cmath>

#include "util/check.hpp"

namespace scs::simd {

namespace detail {

// Implemented in simd_avx2.cpp (only compiled when SCS_SIMD_AVX2 is
// defined); declarations here keep the dispatch switch in one file.
void axpy_avx2(double* y, double s, const double* x, std::size_t n);
void add_avx2(double* y, const double* x, std::size_t n);
void sub_avx2(double* y, const double* x, std::size_t n);
void scale_avx2(double* y, double s, std::size_t n);
double dot_avx2(const double* x, const double* y, std::size_t n);
void dot_columns_avx2(double* out, const double* w, std::size_t rows,
                      std::size_t n, const double* x, std::size_t cols);
void dot_rows_avx2(double* out, const double* a, std::size_t lda,
                   std::size_t rows, const double* y, std::size_t n);
void outer_accumulate_avx2(double* g, const double* d, std::size_t rows,
                           const double* x, std::size_t cols,
                           std::size_t samples);
void weighted_gram_avx2(double* g, double* gy, const double* x,
                        std::size_t n, const double* w, const double* y,
                        std::size_t samples, std::size_t a0, std::size_t a1,
                        std::size_t b0, std::size_t b1);
void combine_rows_avx2(double* out, const double* w, std::size_t n,
                       const std::size_t* rows, const double* coef,
                       std::size_t count);
void bias_activate_avx2(double* pre, double* post, double bias,
                        std::size_t n, bool relu);
void relu_grad_avx2(double* d, const double* pre, std::size_t n);
void adam_update_avx2(double* params, double* m, double* v,
                      const double* grad, std::size_t n, const AdamStep& step);

}  // namespace detail

namespace {

bool detect_avx2() {
#ifdef SCS_SIMD_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// Per-thread override so concurrent benchmark workers can A/B different
// paths without racing; kAuto falls back to the one-time CPU detection.
thread_local Kernel g_override = Kernel::kAuto;

inline bool use_avx2() {
  static const bool cpu_ok = detect_avx2();
  switch (g_override) {
    case Kernel::kScalar:
      return false;
    case Kernel::kAvx2:
      return true;
    case Kernel::kAuto:
    default:
      return cpu_ok;
  }
}

void axpy_scalar(double* y, double s, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void add_scalar(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void sub_scalar(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void scale_scalar(double* y, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= s;
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i] * y[i];
    l1 += x[i + 1] * y[i + 1];
    l2 += x[i + 2] * y[i + 2];
    l3 += x[i + 3] * y[i + 3];
  }
  // Tail terms land in the lane their index selects, exactly as a masked
  // SIMD tail would place them.
  if (i < n) l0 += x[i] * y[i];
  if (i + 1 < n) l1 += x[i + 1] * y[i + 1];
  if (i + 2 < n) l2 += x[i + 2] * y[i + 2];
  return (l0 + l1) + (l2 + l3);
}

void dot_columns_scalar(double* out, const double* w, std::size_t rows,
                        std::size_t n, const double* x, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r, w += n) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double* xc = x + c;  // column c: stride `cols`
      double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        l0 += w[j] * xc[j * cols];
        l1 += w[j + 1] * xc[(j + 1) * cols];
        l2 += w[j + 2] * xc[(j + 2) * cols];
        l3 += w[j + 3] * xc[(j + 3) * cols];
      }
      if (j < n) l0 += w[j] * xc[j * cols];
      if (j + 1 < n) l1 += w[j + 1] * xc[(j + 1) * cols];
      if (j + 2 < n) l2 += w[j + 2] * xc[(j + 2) * cols];
      out[r * cols + c] = (l0 + l1) + (l2 + l3);
    }
  }
}

void dot_rows_scalar(double* out, const double* a, std::size_t lda,
                     std::size_t rows, const double* y, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) out[r] = dot_scalar(a + r * lda, y, n);
}

// The MLP and Adam kernels below are plain loops on every target; each
// element sees its operations in the order simd.hpp documents.

void outer_accumulate_scalar(double* g, const double* d, std::size_t rows,
                             const double* x, std::size_t cols,
                             std::size_t samples) {
  for (std::size_t r = 0; r < rows; ++r, g += cols, d += samples)
    for (std::size_t b = 0; b < samples; ++b)
      for (std::size_t c = 0; c < cols; ++c) g[c] += d[b] * x[b * cols + c];
}

void weighted_gram_scalar(double* g, double* gy, const double* x,
                          std::size_t n, const double* w, const double* y,
                          std::size_t samples, std::size_t a0, std::size_t a1,
                          std::size_t b0, std::size_t b1) {
  for (std::size_t s = 0; s < samples; ++s, x += n)
    for (std::size_t a = a0; a < a1; ++a) {
      const double d = w[s] * x[a];
      double* ga = g + a * n;
      for (std::size_t b = b0; b < b1; ++b) ga[b] += d * x[b];
      gy[a] += d * y[s];
    }
}

void combine_rows_scalar(double* out, const double* w, std::size_t n,
                         const std::size_t* rows, const double* coef,
                         std::size_t count) {
  for (std::size_t t = 0; t < count; ++t) {
    const double* row = w + rows[t] * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += coef[t] * row[j];
  }
}

void bias_activate_scalar(double* pre, double* post, double bias,
                          std::size_t n, bool relu) {
  for (std::size_t i = 0; i < n; ++i) {
    const double p = pre[i] + bias;
    pre[i] = p;
    post[i] = !relu ? p : (p > 0.0 ? p : 0.0);
  }
}

void relu_grad_scalar(double* d, const double* pre, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= pre[i] > 0.0 ? 1.0 : 0.0;
}

void adam_update_scalar(double* params, double* m, double* v,
                        const double* grad, std::size_t n,
                        const AdamStep& step) {
  const double c1 = 1.0 - step.beta1, c2 = 1.0 - step.beta2;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = step.beta1 * m[i] + c1 * grad[i];
    v[i] = step.beta2 * v[i] + c2 * grad[i] * grad[i];
    const double mhat = m[i] / step.bias1;
    const double vhat = v[i] / step.bias2;
    params[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

}  // namespace

void set_kernel_override(Kernel k) {
#ifndef SCS_SIMD_AVX2
  SCS_REQUIRE(k != Kernel::kAvx2,
              "simd: AVX2 kernels were not compiled in (SCS_SIMD=OFF)");
#else
  SCS_REQUIRE(k != Kernel::kAvx2 || __builtin_cpu_supports("avx2"),
              "simd: this CPU does not support AVX2");
#endif
  g_override = k;
}

const char* active_kernel_name() { return use_avx2() ? "avx2" : "scalar"; }

bool avx2_available() {
  static const bool cpu_ok = detect_avx2();
  return cpu_ok;
}

void axpy(double* y, double s, const double* x, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::axpy_avx2(y, s, x, n);
    return;
  }
#endif
  axpy_scalar(y, s, x, n);
}

void add(double* y, const double* x, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::add_avx2(y, x, n);
    return;
  }
#endif
  add_scalar(y, x, n);
}

void sub(double* y, const double* x, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::sub_avx2(y, x, n);
    return;
  }
#endif
  sub_scalar(y, x, n);
}

void scale(double* y, double s, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::scale_avx2(y, s, n);
    return;
  }
#endif
  scale_scalar(y, s, n);
}

double dot(const double* x, const double* y, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) return detail::dot_avx2(x, y, n);
#endif
  return dot_scalar(x, y, n);
}

void dot_columns(double* out, const double* w, std::size_t rows,
                 std::size_t n, const double* x, std::size_t cols) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::dot_columns_avx2(out, w, rows, n, x, cols);
    return;
  }
#endif
  dot_columns_scalar(out, w, rows, n, x, cols);
}

void dot_rows(double* out, const double* a, std::size_t lda,
              std::size_t rows, const double* y, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::dot_rows_avx2(out, a, lda, rows, y, n);
    return;
  }
#endif
  dot_rows_scalar(out, a, lda, rows, y, n);
}

void outer_accumulate(double* g, const double* d, std::size_t rows,
                      const double* x, std::size_t cols, std::size_t samples) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::outer_accumulate_avx2(g, d, rows, x, cols, samples);
    return;
  }
#endif
  outer_accumulate_scalar(g, d, rows, x, cols, samples);
}

void weighted_gram(double* g, double* gy, const double* x, std::size_t n,
                   const double* w, const double* y, std::size_t samples,
                   std::size_t a0, std::size_t a1, std::size_t b0,
                   std::size_t b1) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::weighted_gram_avx2(g, gy, x, n, w, y, samples, a0, a1, b0, b1);
    return;
  }
#endif
  weighted_gram_scalar(g, gy, x, n, w, y, samples, a0, a1, b0, b1);
}

void combine_rows(double* out, const double* w, std::size_t n,
                  const std::size_t* rows, const double* coef,
                  std::size_t count) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::combine_rows_avx2(out, w, n, rows, coef, count);
    return;
  }
#endif
  combine_rows_scalar(out, w, n, rows, coef, count);
}

void bias_activate(double* pre, double* post, double bias, std::size_t n,
                   bool relu) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::bias_activate_avx2(pre, post, bias, n, relu);
    return;
  }
#endif
  bias_activate_scalar(pre, post, bias, n, relu);
}

void relu_grad(double* d, const double* pre, std::size_t n) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::relu_grad_avx2(d, pre, n);
    return;
  }
#endif
  relu_grad_scalar(d, pre, n);
}

void adam_update(double* params, double* m, double* v, const double* grad,
                 std::size_t n, const AdamStep& step) {
#ifdef SCS_SIMD_AVX2
  if (use_avx2()) {
    detail::adam_update_avx2(params, m, v, grad, n, step);
    return;
  }
#endif
  adam_update_scalar(params, m, v, grad, n, step);
}

}  // namespace scs::simd
