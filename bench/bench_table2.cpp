// E2 -- regenerates TABLE 2: the full pipeline on the C1..C10 benchmark
// suite plus the 'nncontroller' baseline comparison.
//
// For every benchmark: DDPG training -> Algorithm 1 PAC approximation ->
// SOS barrier-certificate verification (T_p column), then the baseline
// (supervised NN controller + barrier with exhaustive grid verification;
// T_n column or 'x' on failure -- the baseline's grid is exponential in n,
// so it passes only the low-dimensional cases, as in the paper).
//
// Environment knobs:
//   SCS_FAST=1         reduced budgets (smoke run)
//   SCS_BENCH=C3       run a single benchmark
//   SCS_T2_EPISODES=N  RL episode override
//   SCS_T2_MAXK=N      cap the scenario sample count (eps is recomputed
//                      honestly from the capped K, Theorem 3)
//   SCS_SKIP_BASELINE=1  skip the nncontroller column
// N is a whole number >= 1; any other value names the variable and exits 2
// before training.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <vector>

#include "../examples/cli_args.hpp"
#include "baseline/nncontroller.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

int bad_env(const char* name, const char* value) {
  std::cerr << name << " must be a whole number >= 1, not '" << value
            << "'\n";
  return 2;
}

}  // namespace

int main() {
  using namespace scs;
  const bool fast = std::getenv("SCS_FAST") != nullptr;
  const char* only = std::getenv("SCS_BENCH");
  const bool skip_baseline = std::getenv("SCS_SKIP_BASELINE") != nullptr;

  PipelineConfig cfg;
  cfg.seed = 2024;
  if (const char* v = std::getenv("SCS_T2_EPISODES");
      v != nullptr &&
      !parse_int(v, 1, std::numeric_limits<int>::max(), cfg.rl_episodes))
    return bad_env("SCS_T2_EPISODES", v);
  if (const char* v = std::getenv("SCS_T2_MAXK");
      v != nullptr &&
      !parse_uint(v, 1, std::numeric_limits<std::uint64_t>::max(),
                  cfg.pac_fit.max_samples))
    return bad_env("SCS_T2_MAXK", v);
  if (fast) {
    cfg.rl_episodes = (cfg.rl_episodes > 0) ? cfg.rl_episodes : 60;
    cfg.pac_fit.max_samples = 10000;
  }

  std::cout << "=== Table 2: performance evaluation (Poly.controller vs "
               "nncontroller) ===\n";
  std::cout << "threads: " << parallel_threads() << " (SCS_THREADS to change)\n";
  std::cout << table2_header() << "\n";

  Stopwatch total;
  std::vector<Benchmark> benchmarks;
  for (const BenchmarkId id : all_benchmark_ids()) {
    Benchmark bench = make_benchmark(id);
    if (only != nullptr && bench.name != only) continue;
    benchmarks.push_back(std::move(bench));
  }

  // One chunk per system (each one's inner stages also run parallel
  // chunks); every system derives its randomness from cfg.seed alone, so
  // the results match a sequential loop bitwise at any thread count. Rows
  // print in benchmark order afterwards.
  std::vector<SynthesisResult> results(benchmarks.size());
  parallel_for(benchmarks.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      results[i] = synthesize(benchmarks[i], cfg);
  });

  int succeeded = 0;
  std::vector<std::string> timing_lines;
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const Benchmark& bench = benchmarks[i];
    const SynthesisResult& result = results[i];
    if (result.success) ++succeeded;
    timing_lines.push_back(stage_timings_json(result));

    NnControllerResult baseline;
    bool have_baseline = false;
    if (!skip_baseline) {
      NnControllerConfig bl_cfg;
      // The baseline's exhaustive grid cannot run beyond n = 3 (it refuses
      // up front -- the 'x' regime), so the full training budget is only
      // spent where the verification verdict depends on it.
      const bool verifiable = bench.ccds.num_states <= 3;
      bl_cfg.train_iterations = verifiable ? (fast ? 800 : 4000) : 300;
      bl_cfg.verify_budget_seconds = fast ? 15.0 : 60.0;
      baseline = run_nncontroller(bench.ccds, bl_cfg);
      have_baseline = true;
    }
    std::cout << table2_row(bench, result,
                            have_baseline ? &baseline : nullptr)
              << "\n"
              << std::flush;
  }
  std::cout << "\nstage timings (per system):\n";
  for (const std::string& line : timing_lines) std::cout << "  " << line << "\n";
  std::cout << "\nPoly.controller verified " << succeeded << "/"
            << benchmarks.size() << " benchmarks in " << total.seconds()
            << " s total\n"
            << "(paper: 10/10 for Poly.controller; nncontroller verifies "
               "only C1-C3)\n";
  // Per-system synthesis records were appended by synthesize itself (when
  // SCS_LEDGER is set); this is the harness-level summary.
  JsonWriter summary;
  summary.begin_object();
  summary.key("benchmarks").value(static_cast<std::uint64_t>(benchmarks.size()));
  summary.key("verified").value(succeeded);
  summary.key("fast").value(fast);
  summary.key("total_seconds").value(total.seconds(), 6);
  summary.end_object();
  if (ledger_append_bench("bench_table2", summary.str()))
    std::cout << "ledger record appended to " << resolve_ledger_path("")
              << "\n";
  return 0;
}
