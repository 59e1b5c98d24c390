// Re-entrant synthesis job unit: one (benchmark, config) work item plus the
// runtime context (cancellation, shared cache, ledger identity) it runs
// under. synthesize_cli, fuzz_cli and perfbench all drive this same unit,
// so every caller's run of the same job is bitwise identical.
//
// A JobContext is observation/control plumbing only: nothing in it enters
// cache keys, artifacts, or results (absent a stop), so two runs differing
// only in their context produce identical outputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "util/cancellation.hpp"

namespace scs {

/// Per-run context a job owner (a CLI deadline, a batch runner) hands to
/// the job it runs. All pointers are borrowed and may be null. A run's RNG
/// streams and obs sinks are derived deterministically from the
/// PipelineConfig (seed / obs fields); they belong to the problem
/// statement, not here -- precisely so context never changes results.
struct JobContext {
  /// Cooperative cancellation + wall-clock deadline. Polled at stage
  /// boundaries and inside the SDP / simplex iteration loops. A stopped job
  /// reports verdict "CANCELLED" or "DEADLINE" and stores no artifact for
  /// the preempted (or any later) stage.
  const JobControl* control = nullptr;
  /// Shared stage cache. Null => the job opens its own from config.store.
  /// A caller answering many jobs from one store shares one handle so
  /// per-job setup stays off the warm path.
  StageCache* cache = nullptr;
  /// Ledger "source" tag recorded with this run.
  std::string source = "synthesize";
};

/// One re-entrant unit of synthesis work: the full pipeline (stages 1-4:
/// RL, PAC, barrier, validation). Immutable after construction; run() may
/// be called any number of times and from any thread -- each call is a
/// fresh pipeline pass, deterministic in (benchmark, config).
class SynthesisJob {
 public:
  explicit SynthesisJob(Benchmark benchmark, PipelineConfig config = {});

  const Benchmark& benchmark() const { return benchmark_; }
  const PipelineConfig& config() const { return config_; }

  /// The run's configuration identity: the value the ledger records as
  /// config_key, and the upstream key of the stage-cache chain. Two jobs
  /// with equal keys produce bitwise-identical results.
  std::uint64_t config_key() const;

  SynthesisResult run(const JobContext& ctx = {}) const;

 private:
  Benchmark benchmark_;
  PipelineConfig config_;
};

}  // namespace scs
