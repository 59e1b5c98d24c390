// Plain-text table formatting matching the layout of the paper's Table 1
// (Algorithm 1 trace) and Table 2 (benchmark evaluation + baseline).
#pragma once

#include <string>
#include <vector>

#include "baseline/nncontroller.hpp"
#include "core/pipeline.hpp"
#include "obs/json_reader.hpp"
#include "obs/ledger.hpp"

namespace scs {

/// Table 1: one row per degree attempted by Algorithm 1 (the converged
/// attempt at that degree), columns (d, eta, eps, K, e, delta_e, tau).
std::string format_table1(const PacResult& pac, double tau);

/// Table 2 header (fixed-width columns).
std::string table2_header();

/// One Table 2 row: benchmark data, the Poly.controller pipeline outcome,
/// and the nncontroller baseline outcome (nullptr = not run).
std::string table2_row(const Benchmark& benchmark,
                       const SynthesisResult& result,
                       const NnControllerResult* baseline);

/// Per-stage wall-clock attribution for one pipeline run as a single JSON
/// object: benchmark name, verdict, failure_stage/failure_message (empty on
/// success), rl/pac/barrier/validation/total seconds, and the thread count
/// the run executed with -- the width recorded at synthesize() entry, not
/// the pool width at report time. When the artifact store was enabled for
/// the run, a "cache" sub-object (see cache_stats_json) is appended so warm
/// timings are attributable to cache hits. All strings are JSON-escaped
/// (solver failure messages may embed quotes/newlines).
std::string stage_timings_json(const SynthesisResult& result);

/// Artifact-store telemetry for one run as a JSON object: enabled flag plus
/// per-stage {hits, misses, stores, corrupt, load_seconds, store_seconds}.
std::string cache_stats_json(const CacheStats& stats);

/// Convert a finished pipeline run into its run-ledger record: identity
/// from the RL stage-cache key (rendered hex, see src/store/stage_cache)
/// plus the seed; payload from the result's verdict, PAC model, stage
/// timings, and metrics snapshot. ledger_append fills run_id /
/// timestamp_ms / git_head. Lives here (not in scs_obs) so the ledger
/// stays a plain data layer with no dependency on pipeline types.
LedgerRecord ledger_record(const SynthesisResult& result,
                           std::uint64_t config_key, std::uint64_t seed,
                           const std::string& source);

/// One span name of a trace profile. Names are cut at their first ':', so
/// the "barrier.arm:<arm>" spans of a ladder share one row.
struct SpanProfileRow {
  std::string name;
  std::size_t count = 0;
  double inclusive_s = 0.0;  // summed span durations
  double self_s = 0.0;       // minus the direct child spans on its thread
};

/// Per-name profile of a Chrome trace as trace_write exports it, sorted by
/// self time, largest first. A span's children are the spans that nest in
/// it on the same thread; instants and spans on other threads (a pooled
/// region's workers) are never subtracted. Throws JsonParseError when
/// `trace` has no traceEvents array.
std::vector<SpanProfileRow> trace_profile(const JsonValue& trace);

/// The profile as a fixed-width text table: span, count, inclusive_s,
/// self_s.
std::string format_trace_profile(const std::vector<SpanProfileRow>& rows);

}  // namespace scs
