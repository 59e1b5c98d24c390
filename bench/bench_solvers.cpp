// E5 -- google-benchmark micro-benchmarks for the solver kernels backing
// the pipeline: the scenario minimax fit (scaling in K and in the template
// size v) and the SOS/SDP stack (scaling in Gram block size), plus the
// polynomial kernels they are built on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "math/mat.hpp"
#include "math/simd.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "opt/minimax_fit.hpp"
#include "opt/sdp.hpp"
#include "poly/basis.hpp"
#include "poly/lie.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace scs {
namespace {

/// Random matrix; `density` < 1 zeroes entries so the tile-level skip in
/// matmul has something to elide (the per-element branch it replaced is
/// covered by the dense case).
Mat random_mat(std::size_t rows, std::size_t cols, Rng& rng,
               double density = 1.0) {
  Mat m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      m(i, j) = (rng.uniform(0.0, 1.0) < density) ? rng.normal() : 0.0;
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  Rng rng(7);
  const Mat a = random_mat(n, n, rng, density);
  const Mat b = random_mat(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_Matmul)
    ->ArgsProduct({{64, 128, 256}, {100, 10}})  // {size, density %}
    ->Unit(benchmark::kMicrosecond)
    ->Complexity(benchmark::oNCubed);

void BM_MatmulAtB(benchmark::State& state) {
  // Design-matrix shape: tall-skinny A^T B as in the scenario normal
  // equations.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Mat a = random_mat(k, 32, rng);
  const Mat b = random_mat(k, 32, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_at_b(a, b));
  }
}
BENCHMARK(BM_MatmulAtB)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_MatmulABt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Mat a = random_mat(n, n, rng);
  const Mat b = random_mat(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_a_bt(a, b));
  }
}
BENCHMARK(BM_MatmulABt)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->Unit(benchmark::kMicrosecond);

void BM_MinimaxFit_SamplesSweep(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Mat design(k, 6);
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double x1 = rng.uniform(-1.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);
    design.set_row(i, Vec{1.0, x1, x2, x1 * x1, x1 * x2, x2 * x2});
    targets[i] = std::tanh(2.0 * x1 - x2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimax_fit(design, targets));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(k));
}
BENCHMARK(BM_MinimaxFit_SamplesSweep)
    ->RangeMultiplier(4)
    ->Range(1000, 256000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

void BM_MinimaxFit_TemplateSweep(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  Rng rng(2);
  const std::size_t n = 4;
  const auto basis = monomials_up_to(n, degree);
  const std::size_t k = 20000;
  Mat design(k, basis.size());
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Vec x(rng.uniform_vector(n, -1.0, 1.0));
    design.set_row(i, evaluate_basis(basis, x));
    targets[i] = std::tanh(x[0] - 0.3 * x[1] + x[2] * x[3]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimax_fit(design, targets));
  }
}
BENCHMARK(BM_MinimaxFit_TemplateSweep)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

/// min tr(X) with 2n random sparse constraints on one n x n Gram-sized
/// block; feasible by construction around X0 = I.
SdpProblem random_gram_sdp(std::size_t n, Rng& rng) {
  SdpProblem p;
  p.block_dims = {n};
  p.block_obj_weight = {1.0};
  for (std::size_t i = 0; i < 2 * n; ++i) {
    SdpConstraint c;
    const std::size_t r = rng.index(n);
    const std::size_t cc = r + rng.index(n - r);
    const double v = rng.uniform(-1.0, 1.0);
    c.entries.push_back({0, r, cc, v});
    c.rhs = (r == cc) ? v : 0.0;
    p.constraints.push_back(c);
  }
  return p;
}

void BM_SdpGramBlock(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const SdpProblem p = random_gram_sdp(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_sdp(p));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_SdpGramBlock)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_PolynomialMultiply(benchmark::State& state) {
  const int degree = static_cast<int>(state.range(0));
  Rng rng(5);
  const auto basis = monomials_up_to(4, degree);
  Vec c1(basis.size()), c2(basis.size());
  for (auto& v : c1.data()) v = rng.normal();
  for (auto& v : c2.data()) v = rng.normal();
  const Polynomial a = Polynomial::from_coefficients(basis, c1);
  const Polynomial b = Polynomial::from_coefficients(basis, c2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_PolynomialMultiply)->DenseRange(2, 5);

void BM_LieDerivative(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto basis2 = monomials_up_to(n, 2);
  std::vector<Polynomial> field;
  for (std::size_t i = 0; i < n; ++i) {
    Vec c(basis2.size());
    for (auto& v : c.data()) v = rng.normal();
    field.push_back(Polynomial::from_coefficients(basis2, c));
  }
  const auto basis4 = monomials_up_to(n, 4);
  Vec cb(basis4.size());
  for (auto& v : cb.data()) v = rng.normal();
  const Polynomial barrier = Polynomial::from_coefficients(basis4, cb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lie_derivative(barrier, field));
  }
}
BENCHMARK(BM_LieDerivative)->DenseRange(2, 9);

// ---- SIMD kernel A/B (src/math/simd.hpp). Each benchmark runs the same
// workload forced through the scalar fallback and through AVX2 via the
// per-thread kernel override, so one binary reports both columns; the AVX2
// captures skip themselves on machines (or SCS_SIMD=OFF builds) without the
// vector kernels.

void BM_KernelAxpy(benchmark::State& state, simd::Kernel kernel) {
  if (kernel == simd::Kernel::kAvx2 && !simd::avx2_available()) {
    state.SkipWithError("AVX2 kernels unavailable in this build");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(20);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  simd::set_kernel_override(kernel);
  for (auto _ : state) {
    simd::axpy(y.data(), 1e-6, x.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  simd::set_kernel_override(simd::Kernel::kAuto);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(3 * n * sizeof(double)));  // read x,y; write y
}
BENCHMARK_CAPTURE(BM_KernelAxpy, scalar, simd::Kernel::kScalar)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelAxpy, avx2, simd::Kernel::kAvx2)->Arg(4096);

void BM_KernelDot(benchmark::State& state, simd::Kernel kernel) {
  if (kernel == simd::Kernel::kAvx2 && !simd::avx2_available()) {
    state.SkipWithError("AVX2 kernels unavailable in this build");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  simd::set_kernel_override(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::dot(x.data(), y.data(), n));
  }
  simd::set_kernel_override(simd::Kernel::kAuto);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK_CAPTURE(BM_KernelDot, scalar, simd::Kernel::kScalar)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelDot, avx2, simd::Kernel::kAvx2)->Arg(4096);

void BM_KernelMatmul(benchmark::State& state, simd::Kernel kernel) {
  if (kernel == simd::Kernel::kAvx2 && !simd::avx2_available()) {
    state.SkipWithError("AVX2 kernels unavailable in this build");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(22);
  const Mat a = random_mat(n, n, rng);
  const Mat b = random_mat(n, n, rng);
  simd::set_kernel_override(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  simd::set_kernel_override(simd::Kernel::kAuto);
}
BENCHMARK_CAPTURE(BM_KernelMatmul, scalar, simd::Kernel::kScalar)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_KernelMatmul, avx2, simd::Kernel::kAvx2)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// AVX2-over-scalar ratio for the dense matmul, measured inside one
/// benchmark (interleaved A/B, min-of-iterations) and reported as the
/// `speedup` counter so the perf gate (baselines/bench_solvers.json, kind
/// "min") can assert the SIMD layer keeps paying for itself on the dense
/// workloads it was built for.
void BM_KernelSpeedup_Matmul(benchmark::State& state) {
  if (!simd::avx2_available()) {
    state.SkipWithError("AVX2 kernels unavailable in this build");
    return;
  }
  const std::size_t n = 128;
  Rng rng(23);
  const Mat a = random_mat(n, n, rng);
  const Mat b = random_mat(n, n, rng);
  double scalar_best = std::numeric_limits<double>::infinity();
  double avx2_best = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    simd::set_kernel_override(simd::Kernel::kScalar);
    {
      Stopwatch sw;
      benchmark::DoNotOptimize(matmul(a, b));
      scalar_best = std::min(scalar_best, sw.seconds());
    }
    simd::set_kernel_override(simd::Kernel::kAvx2);
    {
      Stopwatch sw;
      benchmark::DoNotOptimize(matmul(a, b));
      avx2_best = std::min(avx2_best, sw.seconds());
    }
  }
  simd::set_kernel_override(simd::Kernel::kAuto);
  state.counters["speedup"] = scalar_best / avx2_best;
}
BENCHMARK(BM_KernelSpeedup_Matmul)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace scs

// Expanded BENCHMARK_MAIN() so harness completion lands in the run ledger
// (SCS_LEDGER) alongside the pipeline records; google-benchmark's own JSON
// output (--benchmark_out) stays the detailed per-benchmark artifact.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  scs::JsonWriter w;
  w.begin_object();
  w.key("benchmarks_run").value(static_cast<std::uint64_t>(ran));
  w.end_object();
  if (scs::ledger_append_bench("bench_solvers", w.str()))
    std::cout << "ledger record appended to " << scs::resolve_ledger_path("")
              << "\n";
  return 0;
}
