// Runtime-dispatched dense kernels for the solver core.
//
// Every hot loop in src/math, src/opt, src/poly and src/nn funnels through
// the tiny kernel set below: elementwise updates (axpy / add / sub / scale),
// a four-lane dot product, and the same dot blocked over the columns of a
// matrix. The AVX2 implementations (simd_avx2.cpp, compiled
// with -mavx2 when the SCS_SIMD CMake option is ON) are written so that
// they are *bitwise identical* to the portable fallbacks:
//
//  - Elementwise kernels use separate multiply and add instructions (never
//    FMA), so each y[i] sees exactly the scalar sequence `y[i] + s * x[i]`.
//  - `dot` accumulates in four independent lanes -- lane j sums the terms
//    at indices congruent to j mod 4 -- and combines them in the fixed
//    order (l0 + l1) + (l2 + l3). The scalar fallback implements the same
//    lane structure with four scalar accumulators, so SCS_SIMD=ON and
//    SCS_SIMD=OFF builds produce identical bits on every machine.
//  - `dot_columns` runs that same dot for many columns at once: it keeps
//    the lanes of four columns in one vector each, so every output has the
//    bits `dot` gives it.
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

}  // namespace scs::simd
