// Append-only, schema-versioned JSONL run ledger.
//
// PR 4's trace spans and metrics registry die with the process; nothing
// tracks how a run compared to yesterday's. The ledger is the persistence
// layer for exactly that: every synthesize()/synthesize_from_law() run
// (and every bench_* harness) appends one self-contained JSON record --
// run identity, per-stage wall-clock, verdict, PAC epsilon, metrics
// snapshot -- to a shared .jsonl file, turning ad-hoc console output into
// a cross-run time series the baseline gate (src/obs/baseline,
// examples/report_cli) can regress against.
//
// Write discipline mirrors log_line: the full record (one line, trailing
// newline included) is formatted first and lands in a single locked
// append, so concurrent synthesize_many workers -- or several processes
// appending to the same file via O_APPEND -- never interleave mid-record.
// A reader that finds a torn or truncated trailing line (crash mid-write)
// rejects that line and keeps every intact record before it.
//
// Determinism: the ledger only *observes* finished results. Nothing in
// the numeric stack reads it back, so arming it cannot perturb bitwise
// 1-vs-N-thread reproducibility (parallel_determinism_test).
//
// Activation (first match wins):
//   - PipelineConfig::obs.ledger_path / an explicit path argument;
//   - env SCS_LEDGER=<path> arms every pipeline run and bench harness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scs {

/// Bump when a field changes meaning or a required field is added; readers
/// reject records from other schema versions instead of misreading them
/// (same policy as the artifact store's format version).
inline constexpr int kLedgerSchemaVersion = 1;

/// One ledger line. Two kinds share the identity header:
///   "synthesis" -- one pipeline run on one benchmark (stage timings,
///                  verdict, PAC model, metrics snapshot);
///   "bench"     -- one bench_* harness completion (its summary JSON
///                  riding along in values_json).
struct LedgerRecord {
  // ---- Identity header (both kinds).
  int schema = kLedgerSchemaVersion;
  std::string kind = "synthesis";
  /// Unique per append: "<timestamp_ms>-<pid>-<seq>". Filled by
  /// ledger_append when empty.
  std::string run_id;
  /// Producer: "synthesize", "synthesize_from_law", "bench_obs", ...
  std::string source;
  /// Wall-clock at append, ms since the Unix epoch (filled when 0).
  std::int64_t timestamp_ms = 0;
  /// Best-effort git HEAD of the working tree ("" when not a checkout).
  /// Filled by ledger_append when empty.
  std::string git_head;
  /// Identity of the run's configuration: the hex stage-cache-style key
  /// folding benchmark content + seed + config slice (see
  /// src/store/stage_cache), so "same config_key" means "comparable runs".
  std::string config_key;
  std::uint64_t seed = 0;
  int threads = 0;

  // ---- Synthesis payload (kind == "synthesis").
  std::string benchmark;
  std::string verdict;  // "VERIFIED" | "UNVERIFIED"
  std::string failure_stage;
  bool pac_valid = true;
  double pac_eps = 0.0;
  double pac_error = 0.0;
  int pac_degree = 0;
  std::uint64_t pac_samples = 0;
  int barrier_degree = 0;
  double rl_seconds = 0.0;
  double pac_seconds = 0.0;
  double barrier_seconds = 0.0;
  double validation_seconds = 0.0;
  double total_seconds = 0.0;
  /// Non-finite doubles dropped (serialized as null) by the process's
  /// JsonWriter up to this record -- a poisoned-output tripwire.
  std::uint64_t json_dropped = 0;
  /// Raw MetricsRegistry snapshot JSON ("" when metrics were off).
  std::string metrics_json;

  // ---- Bench payload (kind == "bench"): the harness's summary object
  // (e.g. the exact blob it wrote to BENCH_*.json), "" for none.
  std::string values_json;
};

/// Serialize one record as a single JSON object (no trailing newline).
/// Guaranteed to parse under json_parse / json_parse_valid.
std::string ledger_record_json(const LedgerRecord& record);

/// Parse one ledger line. Returns false (with a reason in `error` when
/// non-null) for malformed JSON, a schema-version mismatch, an unknown
/// kind, or a missing required field -- the torn/truncated-record path.
bool ledger_record_parse(std::string_view line, LedgerRecord* out,
                         std::string* error = nullptr);

/// Append `record` to the JSONL file at `path` (created on first use),
/// filling run_id / timestamp_ms / git_head when unset. One atomic locked
/// write of the complete line. Returns false on I/O failure (logged, never
/// throws -- the ledger must not take down a run it observes).
bool ledger_append(const std::string& path, LedgerRecord record);

/// Convenience for bench harnesses: append a "bench" record carrying the
/// harness's summary JSON to `path`, or to SCS_LEDGER when `path` is
/// empty. No-op (returning false) when neither names a file.
bool ledger_append_bench(const std::string& source,
                         const std::string& values_json,
                         const std::string& path = "");

struct LedgerReadResult {
  std::vector<LedgerRecord> records;
  /// Lines rejected (torn writes, foreign schema, malformed JSON).
  int skipped = 0;
  /// One "line <n>: <reason>" entry per rejected line.
  std::vector<std::string> errors;
};

/// Read every intact record from a ledger file. Blank lines are ignored;
/// malformed lines are counted and reported, never fatal. A missing file
/// yields zero records plus one error entry.
LedgerReadResult ledger_read(const std::string& path);

/// Ledger path requested via SCS_LEDGER ("" when unset).
std::string ledger_env_path();

/// Effective ledger path for a run: `configured` when non-empty, else
/// SCS_LEDGER, else "" (ledger off).
std::string resolve_ledger_path(const std::string& configured);

/// Best-effort current git HEAD: reads .git/HEAD from `dir` upward and
/// follows one level of ref indirection, to the loose ref file first and
/// then to .git/packed-refs. Returns "" when no checkout is found or its
/// ref resolves nowhere. Pure filesystem -- no subprocess.
std::string git_head_describe(const std::string& dir = ".");

}  // namespace scs
