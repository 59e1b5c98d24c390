// Stage-level checkpointing for the synthesis pipeline.
//
// Each pipeline stage gets a cache key derived from (format version, stage
// tag, benchmark content, the config slice that stage consumes, the seed,
// and the *upstream stage's key*). The keys form the same DAG as the
// pipeline itself:
//
//   bench ─ rl_key ─ pac_key ─ barrier_key ─ validation_key
//
// so changing anything upstream (an RL hyperparameter, the benchmark
// dynamics, the format version) transparently re-keys -- and thereby
// invalidates -- every downstream entry, with no explicit invalidation
// logic anywhere.
//
// Knobs (first match wins):
//   - PipelineConfig::store.mode = kOn / kOff forces it per run;
//   - env SCS_CACHE=off disables caching globally;
//   - env SCS_CACHE_DIR=<dir> (or StoreConfig::cache_dir) enables it.
//
// Every load verifies the blob checksum. A corrupt, truncated, or
// version-skewed entry is logged, counted in StageCounters::corrupt, and
// treated as a miss -- the stage recomputes, mirroring the PR-2 robustness
// ladder's degrade-don't-crash policy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/store.hpp"
#include "systems/benchmarks.hpp"

namespace scs {

struct StoreConfig {
  enum class Mode {
    kAuto,  // enabled iff SCS_CACHE_DIR is set and SCS_CACHE != "off"
    kOn,    // enabled (cache_dir or SCS_CACHE_DIR must name a directory)
    kOff,   // disabled regardless of environment
  };
  Mode mode = Mode::kAuto;
  /// Overrides SCS_CACHE_DIR when non-empty.
  std::string cache_dir;
};

/// Effective cache directory after env resolution; empty = caching off.
std::string resolve_cache_dir(const StoreConfig& config);

/// Per-stage cache telemetry, surfaced in SynthesisResult and the report
/// layer. hits + misses <= 1 per stage per run (stages consult the cache
/// once); corrupt counts a load that failed checksum/format verification
/// (such a load is also a miss).
struct StageCounters {
  int hits = 0;
  int misses = 0;
  int stores = 0;
  int corrupt = 0;
  double load_seconds = 0.0;
  double store_seconds = 0.0;
};

struct CacheStats {
  bool enabled = false;
  StageCounters rl, pac, barrier, validation;
};

// ---- Per-stage payloads (everything a warm run needs to reproduce the
// stage's contribution to SynthesisResult bit-for-bit, wall-clock aside).
// kKind names the stage: its blob kind in the store and its key tag.

struct RlStagePayload {
  static constexpr const char* kKind = "rl";
  Mlp actor;
  std::string dnn_structure;
  EvalResult eval;
};

struct PacStagePayload {
  static constexpr const char* kKind = "pac";
  PacResult pac;
  std::vector<Polynomial> controller;  // physical-scale p(x) per channel
  bool degraded = false;
};

struct BarrierStagePayload {
  static constexpr const char* kKind = "barrier";
  BarrierResult barrier;
  /// The barrier ladder may accept a lower-degree surrogate controller, so
  /// the accepted controller and PAC model are part of this stage's output.
  std::vector<Polynomial> controller;
  PacModel pac_model;
};

struct ValidationStagePayload {
  static constexpr const char* kKind = "validation";
  ValidationReport report;
};

// ---- Key derivation.

std::uint64_t rl_stage_key(const Benchmark& benchmark, std::uint64_t seed,
                           const DdpgConfig& ddpg, const EnvConfig& env,
                           int episodes, int eval_episodes);

std::uint64_t pac_stage_key(std::uint64_t upstream_key, std::uint64_t seed,
                            const PacSettings& settings,
                            const PacFitOptions& options,
                            double control_bound, std::size_t num_controls);

std::uint64_t barrier_stage_key(std::uint64_t upstream_key,
                                const BarrierConfig& config);

std::uint64_t validation_stage_key(std::uint64_t upstream_key,
                                   std::uint64_t seed,
                                   const ValidationConfig& config);

class StageCache {
 public:
  explicit StageCache(const StoreConfig& config);

  bool enabled() const { return store_ != nullptr; }

  /// Load one of the four stage payloads. Returns nullopt on a miss *or*
  /// on a blob that fails verification or decoding (counted as corrupt
  /// and as a miss); never throws.
  template <class Payload>
  std::optional<Payload> load(std::uint64_t key, StageCounters& c);

  /// Best-effort store: an I/O failure is logged and the run continues
  /// uncached.
  template <class Payload>
  void store(std::uint64_t key, const std::string& benchmark,
             const Payload& payload, StageCounters& c);

 private:
  std::shared_ptr<ArtifactStore> store_;  // null when disabled
  /// Marks the cache directory as in-use so `store_cli gc` from another
  /// process defers instead of evicting blobs under a live run (shared_ptr:
  /// StageCache is copyable, the on-disk lock is per acquisition).
  std::shared_ptr<ReaderLockGuard> reader_lock_;
};

}  // namespace scs
