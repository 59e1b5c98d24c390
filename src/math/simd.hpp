// Runtime-dispatched dense kernels for the solver core.
//
// Every hot loop in src/math, src/opt, src/poly and src/nn funnels through
// the small kernel set below: elementwise updates (axpy / add / sub /
// scale), a four-lane dot product, the same dot blocked over the columns of
// a matrix or over the rows of one, the two gradient products of a batched
// MLP pass (outer_accumulate, combine_rows), the weighted normal equations
// of the minimax fit (weighted_gram), the MLP's bias/activation loops
// (bias_activate, relu_grad) and the Adam update. The AVX2 implementations
// (simd_avx2.cpp, compiled with -mavx2 when the SCS_SIMD CMake option is
// ON) are written so that they are *bitwise identical* to the portable
// fallbacks:
//
//  - Elementwise kernels use separate multiply and add instructions (never
//    FMA), so each y[i] sees exactly the scalar sequence `y[i] + s * x[i]`.
//  - outer_accumulate, combine_rows and weighted_gram keep a tile of their
//    output in registers, but every element still receives its terms one
//    at a time, in the documented order, multiply then add.
//  - `dot` accumulates in four independent lanes -- lane j sums the terms
//    at indices congruent to j mod 4 -- and combines them in the fixed
//    order (l0 + l1) + (l2 + l3). The scalar fallback implements the same
//    lane structure with four scalar accumulators, so SCS_SIMD=ON and
//    SCS_SIMD=OFF builds produce identical bits on every machine.
//  - `dot_columns` runs that same dot for many columns at once: it keeps
//    the lanes of four columns in one vector each, so every output has the
//    bits `dot` gives it. `dot_rows` runs it for many rows at once, one
//    vector of lanes per row.
//
// Dispatch is decided once at startup (__builtin_cpu_supports) and can be
// overridden per-thread with set_kernel_override for A/B benchmarks and the
// SIMD-vs-scalar equivalence tests: one binary exercises both paths.
#pragma once

#include <cstddef>

namespace scs::simd {

enum class Kernel {
  kAuto,    // pick the best implementation the CPU supports (default)
  kScalar,  // force the portable fallback
  kAvx2,    // force AVX2 (PreconditionError if unsupported or compiled out)
};

/// Force a kernel implementation on the calling thread (kAuto restores the
/// CPU-detected default). Used by benchmarks and equivalence tests.
void set_kernel_override(Kernel k);

/// The implementation that calls on this thread currently dispatch to:
/// "avx2" or "scalar".
const char* active_kernel_name();

/// True when this binary contains the AVX2 kernels and the CPU supports
/// them (the dispatch default is then AVX2).
bool avx2_available();

/// y[i] += s * x[i] for i in [0, n).
void axpy(double* y, double s, const double* x, std::size_t n);

/// y[i] += x[i].
void add(double* y, const double* x, std::size_t n);

/// y[i] -= x[i].
void sub(double* y, const double* x, std::size_t n);

/// y[i] *= s.
void scale(double* y, double s, std::size_t n);

/// Four-lane dot product: lane j accumulates x[i]*y[i] over i == j (mod 4),
/// lanes combine as (l0 + l1) + (l2 + l3). Deterministic across scalar and
/// AVX2 paths, but NOT bitwise-equal to a plain serial accumulation.
double dot(const double* x, const double* y, std::size_t n);

/// Sample-blocked dot: for a row-major `rows` x `n` matrix `w` and a
/// row-major `n` x `cols` matrix `x` (one column per sample),
/// out[r * cols + c] = dot(w row r, x column c, n), bit for bit. Each output
/// keeps `dot`'s lanes (lane j sums indices == j mod 4 in ascending order,
/// multiply then add, combined as (l0 + l1) + (l2 + l3)); the AVX2 path
/// vectorises across four columns, so no lane is ever reduced across a
/// register.
void dot_columns(double* out, const double* w, std::size_t rows,
                 std::size_t n, const double* x, std::size_t cols);

/// out[r] = dot(a + r * lda, y, n) for r in [0, rows): `dot`, bit for bit,
/// of each row against one vector. The AVX2 path runs four rows at a time,
/// each in its own register of four lanes, so every row keeps dot's lanes
/// and combine.
void dot_rows(double* out, const double* a, std::size_t lda,
              std::size_t rows, const double* y, std::size_t n);

/// Rank-`samples` update of the row-major `rows` x `cols` matrix g, one
/// sample after the other: for b = 0, 1, ..., samples - 1,
///   g[r * cols + c] += d[r * samples + b] * x[b * cols + c].
/// Each element starts from its current value and gets one product per
/// sample, in ascending sample order: the bits of `samples` x `rows` axpy
/// calls. The AVX2 path keeps a 4 x 8 tile of g in registers across all
/// samples.
void outer_accumulate(double* g, const double* d, std::size_t rows,
                      const double* x, std::size_t cols, std::size_t samples);

/// One block of the weighted normal equations XᵀWX c = XᵀWy of the
/// row-major `samples` x `n` matrix x. For a in [a0, a1) and b in [b0, b1),
/// with d = w[s] * x[s * n + a],
///   g[a * n + b] += d * x[s * n + b]   and   gy[a] += d * y[s]
/// for s = 0, 1, ..., samples - 1 in that order, multiply then add: each
/// element gets the bits of the plain triple loop. g is row-major n x n.
/// The AVX2 path keeps four consecutive a of one b in a register and
/// broadcasts x[s * n + b], so it needs no shuffles and no packed copy of x.
void weighted_gram(double* g, double* gy, const double* x, std::size_t n,
                   const double* w, const double* y, std::size_t samples,
                   std::size_t a0, std::size_t a1, std::size_t b0,
                   std::size_t b1);

/// out[j] += coef[t] * w[rows[t] * n + j] for t = 0, 1, ..., count - 1 and
/// j in [0, n): the listed rows of the row-major matrix w added to `out` in
/// list order, multiply then add. These are the bits of calling
/// axpy(out, coef[t], row rows[t], n) for each t in turn; rows that are not
/// listed are never read. The AVX2 path keeps sixteen outputs in registers
/// across the whole list.
void combine_rows(double* out, const double* w, std::size_t n,
                  const std::size_t* rows, const double* coef,
                  std::size_t count);

/// pre[i] += bias, then post[i] = pre[i], or with `relu`
/// post[i] = pre[i] > 0 ? pre[i] : 0 (a NaN or -0 gives +0).
void bias_activate(double* pre, double* post, double bias, std::size_t n,
                   bool relu);

/// d[i] *= pre[i] > 0 ? 1 : 0: the ReLU derivative, applied as a multiply.
void relu_grad(double* d, const double* pre, std::size_t n);

/// One Adam step over n parameters, elementwise with IEEE divide and square
/// root and in this association:
///   m = beta1 m + (1 - beta1) g,   v = beta2 v + ((1 - beta2) g) g,
///   p -= (lr (m / bias1)) / (sqrt(v / bias2) + eps).
struct AdamStep {
  double beta1 = 0.0, beta2 = 0.0;
  double bias1 = 1.0, bias2 = 1.0;  // 1 - beta^t
  double lr = 0.0, eps = 0.0;
};
void adam_update(double* params, double* m, double* v, const double* grad,
                 std::size_t n, const AdamStep& step);

}  // namespace scs::simd
