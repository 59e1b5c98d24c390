// Filesystem spool protocol: the serving daemon's wire format.
//
// Clients talk to the server through a spool directory instead of a
// socket -- requests are JSONL files dropped into inbox/, results appear
// as results/<id>.json, and control actions are marker files under ctl/.
// Writes on both sides are atomic (tmp + rename), so a half-written
// request is never parsed and a half-written result is never read.
//
//   <spool>/inbox/<name>.json    one JobRequest per file (client writes)
//   <spool>/results/<id>.json    one result per finished job (server writes)
//   <spool>/ctl/drain            graceful-shutdown marker (client touches)
//   <spool>/ctl/cancel/<id>      cancel marker for one request (client)
//   <spool>/status.json          schema-versioned live snapshot, every poll
//   <spool>/metrics.txt          Prometheus text exposition, every poll
//
// Backpressure composes with the queue bound: when submit() reports a
// full queue, the runner leaves the request file in the inbox and retries
// it on the next poll -- the inbox is the overflow buffer, the queue
// capacity bounds memory, and no request is ever dropped.
//
// status.json (schema 2) is the daemon's live exposition: queue depth and
// capacity, in-flight count, the full hit/cold/rejected/cancelled/overflow
// counter set, and wait/solve/warm-hit latency
// histograms with p50/p90/p99 (null until observed -- never a fake 0).
// serve_cli's `status` command renders it human-readably; metrics.txt is
// the same registry for scrapers.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "serve/server.hpp"

namespace scs {

struct SpoolLayout {
  std::string root;

  std::string inbox() const { return root + "/inbox"; }
  std::string results() const { return root + "/results"; }
  std::string ctl() const { return root + "/ctl"; }
  std::string status_file() const { return root + "/status.json"; }
  std::string metrics_file() const { return root + "/metrics.txt"; }
  std::string drain_file() const { return ctl() + "/drain"; }
  std::string cancel_dir() const { return ctl() + "/cancel"; }
};

/// Version of the status.json document ("schema" field). Bumped when a
/// field changes meaning; consumers (serve_cli status, tests) reject
/// documents from other versions instead of misreading them.
inline constexpr int kStatusSchemaVersion = 2;

/// Create the spool directory tree. Returns false (with `error`) when the
/// directories cannot be created.
bool spool_init(const SpoolLayout& layout, std::string* error = nullptr);

/// Write `content` to `path` atomically (same-directory tmp + rename).
bool atomic_write_file(const std::string& path, const std::string& content);

/// One finished job rendered for results/<id>.json: identity, verdict,
/// timings, and -- on success -- the certified barrier certificate at
/// round-trip precision.
std::string job_result_json(const std::string& id, std::uint64_t key,
                            const SynthesisResult& result, bool warm_hit,
                            double queue_seconds, double run_seconds);

/// Polls an inbox and feeds a SynthesisServer. Single-threaded by design:
/// one runner owns the spool, the server provides the concurrency.
class SpoolRunner {
 public:
  SpoolRunner(SynthesisServer& server, SpoolLayout layout);

  /// One poll round: apply cancel markers, ingest inbox files, sweep
  /// finished jobs into results/, refresh status.json + metrics.txt.
  /// Returns the number of requests ingested this round.
  int poll_once();

  /// True once ctl/drain exists (checked per poll by the daemon loop).
  bool drain_requested() const;

  /// Jobs ingested but not yet swept to results/.
  std::size_t pending() const { return pending_.size(); }

  /// Instance label stamped into status.json and the daemon summary
  /// (default: the spool root's filename).
  void set_instance(std::string instance) { instance_ = std::move(instance); }
  const std::string& instance() const { return instance_; }

  std::uint64_t ingested_total() const { return ingested_total_; }
  std::uint64_t results_written() const { return results_written_; }

  /// Refresh status.json (also called by poll_once).
  void write_status() const;

  /// Refresh metrics.txt from the registry (also called by poll_once;
  /// no-op when metrics collection is off).
  void write_metrics() const;

  /// Apply ctl/cancel/<id> markers: request cooperative cancellation of
  /// the named in-flight jobs, consuming the markers. Returns how many
  /// cancellations were requested (also called by poll_once).
  int apply_cancel_markers();

  /// Append the daemon lifetime summary ("bench" kind, source
  /// "serve_daemon") to the server's ledger: final counters,
  /// ingested/results_written (whose difference is the fleet gate's
  /// lost-request signal), and latency quantiles. Called by the daemon at
  /// drain; false when no ledger is configured.
  bool append_daemon_summary() const;

 private:
  struct Pending {
    std::string id;
    std::uint64_t key = 0;
    bool warm_hit = false;
  };

  /// Sweep pending jobs whose results are ready into results/.
  void sweep_results();
  void write_error_result(const std::string& id, const std::string& error);

  SynthesisServer& server_;
  SpoolLayout layout_;
  std::string instance_;
  std::unordered_map<std::string, Pending> pending_;  // by result id
  std::uint64_t ingested_total_ = 0;
  std::uint64_t results_written_ = 0;
};

}  // namespace scs
