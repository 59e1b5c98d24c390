// Observability overhead benchmark: quantifies what the instrumentation in
// src/obs costs (a) when disabled -- a single relaxed atomic load per site,
// measured directly against an identical un-instrumented loop -- and (b)
// when fully enabled (metrics + tracing) on an end-to-end fast-mode
// pipeline run. Also checks the determinism contract: tracing on, 1-thread
// vs 4-thread synthesis must produce bitwise-identical controllers.
// Results are printed and written to BENCH_obs.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

ControlLaw pendulum_teacher() {
  return [](const Vec& x) {
    const double x1 = x[0];
    return Vec{9.875 * x1 - 1.56 * x1 * x1 * x1 + 0.056 * std::pow(x1, 5) -
               x1 - 2.0 * x[1]};
  };
}

std::string controllers_fingerprint(const std::vector<Polynomial>& ps) {
  std::ostringstream os;
  for (const Polynomial& p : ps) os << p.to_string(17) << ';';
  return os.str();
}

/// Simplex-style inner-loop work: enough arithmetic per iteration that the
/// guard cost shows up as a realistic fraction, not a synthetic worst case.
double work_step(double acc, int i) {
  return acc + std::fma(1e-9, static_cast<double>(i), std::sin(acc) * 1e-12);
}

// `start` is read from a volatile before every call so the compiler cannot
// CSE repeated invocations into one (loop_plain is otherwise pure). Every
// timed loop starts from the same value: std::sin's argument reduction
// slows with magnitude, so loops started from a growing running sum would
// time different work.
double loop_plain(int iters, double start) {
  double acc = start;
  for (int i = 0; i < iters; ++i) acc = work_step(acc, i);
  return acc;
}

double loop_guarded(int iters, double start) {
  double acc = start;
  for (int i = 0; i < iters; ++i) {
    acc = work_step(acc, i);
    // The exact pattern every instrumented hot site uses.
    if (metrics_enabled()) {
      static Counter& c = MetricsRegistry::instance().counter("bench.guard");
      c.add(1);
    }
  }
  return acc;
}

double loop_trace_guarded(int iters, double start) {
  double acc = start;
  for (int i = 0; i < iters; ++i) {
    acc = work_step(acc, i);
    // The exact pattern every trace site uses when tracing is off: one
    // relaxed enabled-check inside trace_instant, nothing else.
    trace_instant("bench.trace_guard");
  }
  return acc;
}

/// Every counter the instrumentation can bump; summing their values after
/// an enabled run (over-)counts how many guard sites fired, which turns the
/// micro per-site cost into an end-to-end disabled-overhead bound.
std::uint64_t total_counter_hits() {
  static const char* kNames[] = {
      "pool.tasks_submitted",
      "sdp.solves",        "sdp.iterations",
      "sdp.stalls",        "sdp.restarts",
      "simplex.pivots",    "simplex.bland_restarts",
      "robust.cholesky_regularize_retries",
      "robust.refinements", "pac.samples_drawn",
      "pac.samples_dropped", "pac.degraded_fits",
      "store.hits",        "store.misses",
      "store.stores",      "store.corrupt"};
  std::uint64_t total = 0;
  for (const char* name : kNames)
    total += MetricsRegistry::instance().counter(name).value();
  return total;
}

double median_seconds(const std::vector<double>& samples) {
  std::vector<double> s = samples;
  std::sort(s.begin(), s.end());
  return s[s.size() / 2];
}

SynthesisResult run_fast(const Benchmark& bench, const ControlLaw& law,
                         const PipelineConfig& cfg) {
  return synthesize_from_law(bench, law, cfg);
}

}  // namespace
}  // namespace scs

int main() {
  using namespace scs;

  std::cout << "=== Observability overhead benchmark ===\n";

  // ---- (a) Disabled-site micro cost: identical loop with and without the
  // guarded metrics site, observability off.
  set_metrics_enabled(false);
  const int kIters = 20'000'000;
  volatile double start = 1.0;
  volatile double sink = 0.0;
  sink = sink + loop_plain(kIters, start);    // warm
  sink = sink + loop_guarded(kIters, start);  // warm
  std::vector<double> plain_s, guarded_s;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw1;
    sink = sink + loop_plain(kIters, start);
    plain_s.push_back(sw1.seconds());
    Stopwatch sw2;
    sink = sink + loop_guarded(kIters, start);
    guarded_s.push_back(sw2.seconds());
  }
  const double plain_med = median_seconds(plain_s);
  const double guarded_med = median_seconds(guarded_s);
  const double micro_overhead_pct =
      plain_med > 0.0 ? (guarded_med / plain_med - 1.0) * 100.0 : 0.0;
  const double disabled_ns_per_site =
      std::max(0.0, (guarded_med - plain_med) / kIters * 1e9);
  std::cout << "  disabled guard micro: plain " << plain_med << " s, guarded "
            << guarded_med << " s over " << kIters << " iters => +"
            << micro_overhead_pct << " % of a ~"
            << plain_med / kIters * 1e9 << " ns work step ("
            << disabled_ns_per_site << " ns/site)\n";

  // Same micro measurement for a trace site (tracing off).
  trace_stop();
  trace_clear();
  sink = sink + loop_trace_guarded(kIters, start);  // warm
  std::vector<double> trace_guarded_s;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    sink = sink + loop_trace_guarded(kIters, start);
    trace_guarded_s.push_back(sw.seconds());
  }
  const double trace_guarded_med = median_seconds(trace_guarded_s);
  const double trace_disabled_ns_per_site =
      std::max(0.0, (trace_guarded_med - plain_med) / kIters * 1e9);
  std::cout << "  disabled trace-site micro: " << trace_disabled_ns_per_site
            << " ns/site\n";

  // ---- (b) End-to-end enabled cost: fast-mode stages 2-4 with metrics +
  // tracing fully on vs fully off.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const ControlLaw law = pendulum_teacher();
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 3;

  run_fast(bench, law, cfg);  // warm (allocators, pool spin-up)
  MetricsRegistry::instance().reset_for_tests();
  std::vector<double> off_s, on_s;
  for (int rep = 0; rep < 3; ++rep) {
    set_metrics_enabled(false);
    trace_stop();
    trace_clear();
    Stopwatch sw_off;
    run_fast(bench, law, cfg);
    off_s.push_back(sw_off.seconds());

    set_metrics_enabled(true);
    trace_start("/dev/null");
    Stopwatch sw_on;
    run_fast(bench, law, cfg);
    on_s.push_back(sw_on.seconds());
    trace_stop();
    trace_clear();
  }
  set_metrics_enabled(false);
  const double off_med = median_seconds(off_s);
  const double on_med = median_seconds(on_s);
  const double enabled_overhead_pct =
      off_med > 0.0 ? (on_med / off_med - 1.0) * 100.0 : 0.0;
  std::cout << "  end-to-end fast C1: obs off " << off_med << " s, obs on "
            << on_med << " s => enabled overhead " << enabled_overhead_pct
            << " %\n";

  // Disabled end-to-end overhead bound: (guard sites fired during one run)
  // x (micro ns/site) relative to the run's wall clock. Counter sums
  // over-count sites that add() in bulk, so this is an upper bound.
  const std::uint64_t site_hits = total_counter_hits() / 3;  // 3 enabled reps
  const double disabled_overhead_pct =
      off_med > 0.0
          ? static_cast<double>(site_hits) * disabled_ns_per_site /
                (off_med * 1e9) * 100.0
          : 0.0;
  std::cout << "  disabled end-to-end bound: " << site_hits
            << " guard hits/run x " << disabled_ns_per_site
            << " ns/site => " << disabled_overhead_pct << " % of "
            << off_med << " s\n";

  // ---- (c) Determinism with tracing on: 1 vs 4 threads, same controller
  // bit-for-bit (timestamps only ever reach the trace file).
  trace_start("/dev/null");
  const std::size_t default_threads = parallel_threads();
  set_parallel_threads(1);
  const SynthesisResult r1 = run_fast(bench, law, cfg);
  set_parallel_threads(4);
  const SynthesisResult r4 = run_fast(bench, law, cfg);
  set_parallel_threads(default_threads);
  trace_stop();
  trace_clear();
  const bool deterministic =
      r1.verdict == r4.verdict &&
      controllers_fingerprint(r1.controller) ==
          controllers_fingerprint(r4.controller);
  std::cout << "  traced 1-thread vs 4-thread identical: "
            << (deterministic ? "yes" : "NO") << "\n";

  JsonWriter w;
  w.begin_object();
  w.key("iters_per_loop").value(kIters);
  w.key("micro_plain_seconds").value(plain_med, 6);
  w.key("micro_guarded_seconds").value(guarded_med, 6);
  w.key("micro_overhead_pct").value(micro_overhead_pct, 4);
  w.key("disabled_ns_per_site").value(disabled_ns_per_site, 4);
  w.key("trace_disabled_ns_per_site").value(trace_disabled_ns_per_site, 4);
  w.key("guard_hits_per_run").value(static_cast<std::uint64_t>(site_hits));
  w.key("disabled_overhead_pct").value(disabled_overhead_pct, 4);
  w.key("enabled_off_seconds").value(off_med, 6);
  w.key("enabled_on_seconds").value(on_med, 6);
  w.key("enabled_overhead_pct").value(enabled_overhead_pct, 4);
  w.key("traced_thread_determinism").value(deterministic);
  w.end_object();
  std::ofstream("BENCH_obs.json") << w.str() << "\n";
  std::cout << "wrote BENCH_obs.json\n";
  if (ledger_append_bench("bench_obs", w.str()))
    std::cout << "ledger record appended to " << resolve_ledger_path("")
              << "\n";

  (void)sink;
  if (!deterministic) {
    std::cout << "ERROR: tracing perturbed thread determinism\n";
    return 1;
  }
  if (disabled_overhead_pct >= 2.0) {
    std::cout << "WARNING: disabled-site overhead above the 2% target\n";
  }
  return 0;
}
