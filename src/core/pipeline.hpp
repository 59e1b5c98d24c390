// The paper's end-to-end contribution: synthesize a *verified* polynomial
// controller for a CCDS by
//   (1) training a DNN controller with DDPG           (Section 3.1),
//   (2) PAC-approximating it with a low-degree polynomial via scenario
//       optimization / Algorithm 1                    (Section 3.2),
//   (3) generating a barrier certificate for the closed loop via SOS
//       relaxation                                     (Section 4),
//   (4) independently validating the certificate numerically.
//
// This is the library's primary public entry point.
#pragma once

#include <cstdint>
#include <string>

#include "barrier/independent_check.hpp"
#include "barrier/synthesis.hpp"
#include "pac/pac_fit.hpp"
#include "rl/ddpg.hpp"
#include "store/stage_cache.hpp"
#include "systems/benchmarks.hpp"

namespace scs {

/// Per-run observability knobs (the env vars SCS_TRACE / SCS_METRICS arm
/// the same machinery process-wide; these fields scope it to one run and
/// write the files when synthesize() returns).
struct ObsConfig {
  /// Non-empty: collect Chrome trace-event spans and export them here.
  std::string trace_path;
  /// Non-empty: enable the metrics registry and dump it as JSON here.
  std::string metrics_path;
  /// Non-empty: append one run-ledger record (obs/ledger.hpp) here when
  /// the run finishes. Env SCS_LEDGER is the fallback when empty.
  std::string ledger_path;
};

struct PipelineConfig {
  std::uint64_t seed = 1;

  // Stage 1: RL. The episode budget defaults to the benchmark's RlBudget;
  // override with >= 0. The actor's hidden layers, the time step and the
  // episode length come from the benchmark too, and the evaluation and
  // validation budgets from fast_mode (pipeline.cpp).
  int rl_episodes = -1;

  // Stage 2: PAC approximation (settings come from the benchmark).
  PacFitOptions pac_fit;

  // Stage 3: barrier certificate.
  BarrierConfig barrier;

  /// Shrink every budget for unit tests (small K, few episodes).
  bool fast_mode = false;

  /// Stage checkpointing through the content-addressed artifact store
  /// (src/store). Default kAuto: enabled iff SCS_CACHE_DIR is set and
  /// SCS_CACHE != "off". A warm re-run of an already-cached benchmark skips
  /// RL (and any other cached stage) and reproduces the cold run's
  /// controller/barrier/verdict bit-for-bit.
  StoreConfig store;

  /// Tracing / metrics for this run (see src/obs). Observation only: never
  /// perturbs results, caches, or bitwise determinism.
  ObsConfig obs;
};

struct SynthesisResult {
  std::string benchmark;
  bool success = false;
  std::string failure_stage;  // "rl" | "pac" | "barrier" | "validation"
  /// Final verdict: "VERIFIED" only when every stage succeeded (including
  /// independent validation); otherwise "UNVERIFIED". The pipeline never
  /// aborts the process on a solver failure -- numeric trouble in any stage
  /// degrades to an UNVERIFIED verdict with the reason in failure_message.
  std::string verdict = "UNVERIFIED";
  std::string failure_message;
  /// True when any control channel came from the least-squares fallback
  /// (PAC guarantee withdrawn; see PacModel::pac_valid).
  bool pac_degraded = false;

  // Stage 1.
  std::string dnn_structure;
  EvalResult rl_eval;
  double rl_seconds = 0.0;

  // Stage 2.
  PacResult pac;
  double pac_seconds = 0.0;
  std::vector<Polynomial> controller;  // the synthesized p(x) per channel

  // Stage 3.
  BarrierResult barrier;
  double barrier_seconds = 0.0;  // T_p

  // Stage 4.
  ValidationReport validation;
  double validation_seconds = 0.0;

  /// Wall-clock for the whole pipeline run on this benchmark.
  double total_seconds = 0.0;

  /// Parallel execution width recorded at synthesize() entry -- the width
  /// the run actually used, immune to later set_parallel_threads() calls
  /// (reports sampled the *current* pool width before, which lied after a
  /// pool reconfig). 0 only on default-constructed results.
  int threads_used = 0;

  /// Per-stage artifact-store telemetry (hits/misses/corrupt/load times);
  /// cache.enabled is false when the store is off for this run.
  CacheStats cache;

  /// Snapshot of the process-wide metrics registry (JSON) taken when this
  /// run finished; empty when metrics collection is disabled. Cumulative
  /// across the process, not per-run.
  std::string metrics_json;
};

/// Run the full pipeline on one benchmark.
SynthesisResult synthesize(const Benchmark& benchmark,
                           const PipelineConfig& config = {});

/// Stages 2+3 only, with a caller-provided control law standing in for the
/// trained DNN (used by tests and ablations to decouple stages).
SynthesisResult synthesize_from_law(const Benchmark& benchmark,
                                    const ControlLaw& law,
                                    const PipelineConfig& config = {});

/// Run the full pipeline on several benchmarks concurrently (one task per
/// system on the global thread pool, inner stages parallel too). Every
/// system derives all of its randomness from config.seed alone, so results
/// are positionally aligned with `benchmarks` and bitwise-identical to
/// sequential `synthesize` calls at any thread count.
std::vector<SynthesisResult> synthesize_many(
    const std::vector<Benchmark>& benchmarks,
    const PipelineConfig& config = {});

}  // namespace scs
