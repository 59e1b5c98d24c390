// The synthesis-as-a-service core: an in-process daemon that dedupes,
// queues, runs, and serves SynthesisJob units.
//
// Job lifecycle (see DESIGN.md section 15):
//
//   submit ──▶ [dedupe map] ──▶ QUEUED ──▶ RUNNING ──▶ DONE
//                 │ hit                                  ▲
//                 └── duplicate attaches / warm hit ─────┘
//
// Exactly-one-cold guarantee: the dedupe map (serve key -> entry) is the
// single critical section; only the thread that inserts a key enqueues
// work for it. Every later submit of the same key attaches to the entry --
// in flight it is a duplicate, finished it is a warm hit answered from
// memory in microseconds without touching the queue or the solvers.
// Restarting the server empties the map but not the artifact store: the
// first resubmission runs the pipeline against warm stage caches (ms, no
// SDP work) and repopulates the map.
//
// Cancellation / deadline: every entry owns a JobControl threaded into the
// pipeline as the JobContext; cancel() works in any state (a queued entry
// runs, sees the stop at the first stage gate, and finishes as CANCELLED
// without solver work). A request deadline arms when the job starts, so
// queue wait does not consume it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/request.hpp"
#include "util/stopwatch.hpp"

namespace scs {

struct ServerConfig {
  /// Worker threads consuming the job queue. Each job's inner stages still
  /// fan out on the process-wide thread pool; workers only provide
  /// between-job concurrency.
  int workers = 2;
  std::size_t queue_capacity = 64;
  /// Stage cache shared by every job (one handle, opened once).
  StoreConfig store;
  /// Ledger for per-job records ("" falls back to env SCS_LEDGER).
  std::string ledger_path;
  /// Suggested client back-off after a backpressure rejection.
  double retry_after_seconds = 1.0;
};

enum class JobState { kQueued, kRunning, kDone };

const char* to_string(JobState state);

struct JobStatus {
  std::string id;
  std::uint64_t key = 0;
  JobState state = JobState::kQueued;
  std::string benchmark;
  std::string verdict;  // "" until done
  bool warm_hit = false;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
};

class SynthesisServer {
 public:
  explicit SynthesisServer(const ServerConfig& config = {});
  ~SynthesisServer();
  SynthesisServer(const SynthesisServer&) = delete;
  SynthesisServer& operator=(const SynthesisServer&) = delete;

  struct Submit {
    enum class Kind {
      kAccepted,   // new entry, queued for cold synthesis
      kDuplicate,  // same key already in flight; attached to it
      kWarmHit,    // same key already done; result served from memory
      kRejected,   // backpressure / draining / invalid request
    };
    Kind kind = Kind::kRejected;
    std::uint64_t key = 0;
    std::string error;
    /// Non-zero only for retryable (backpressure) rejections.
    double retry_after_seconds = 0.0;
  };

  Submit submit(const JobRequest& request);

  /// Block until the job with `key` is done; null for an unknown key.
  std::shared_ptr<const SynthesisResult> wait(std::uint64_t key);
  /// Non-blocking: the result if done, null otherwise.
  std::shared_ptr<const SynthesisResult> result(std::uint64_t key) const;
  std::optional<JobStatus> status(std::uint64_t key) const;
  std::vector<JobStatus> jobs() const;

  /// Request cooperative cancellation. True if the key is known and the
  /// job had not finished yet.
  bool cancel(std::uint64_t key);

  /// Graceful shutdown: reject new submits, drain the queue, join the
  /// workers. Idempotent; also run by the destructor.
  void drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // ---- Telemetry (also exported as serve.* metrics when enabled).
  std::uint64_t submitted() const { return submitted_.load(); }
  std::uint64_t cold_runs() const { return cold_runs_.load(); }
  std::uint64_t warm_hits() const { return warm_hits_.load(); }
  std::uint64_t duplicates() const { return duplicates_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }
  /// Backpressure rejections only (queue kFull) -- a subset of rejected().
  std::uint64_t overflow() const { return overflow_.load(); }
  /// Jobs that finished with a CANCELLED or DEADLINE verdict.
  std::uint64_t cancelled() const { return cancelled_.load(); }
  /// Jobs currently inside run_entry (cold solves in progress).
  std::uint64_t in_flight() const { return in_flight_.load(); }
  std::size_t queue_depth() const { return queue_.size(); }
  const ServerConfig& config() const { return config_; }

 private:
  struct Entry {
    Entry(JobRequest r, SynthesisJob j, std::uint64_t k)
        : request(std::move(r)), job(std::move(j)), key(k) {}
    JobRequest request;
    SynthesisJob job;
    std::uint64_t key;
    /// Trace correlation id: the client's request id, or the hex key for
    /// anonymous submits. Tags every span/instant of this job's lifecycle.
    std::string rid;
    /// Trace-clock timestamp of the submit, closing the cross-thread
    /// "serve.queue_wait" span when a worker picks the job up.
    std::int64_t submit_trace_ns = 0;
    JobControl control;
    Stopwatch queued_sw;  // started at submit
    mutable std::mutex m;
    std::condition_variable cv;
    JobState state = JobState::kQueued;
    double queue_seconds = 0.0;
    double run_seconds = 0.0;
    std::shared_ptr<SynthesisResult> result;
  };

  void worker_loop();
  void run_entry(const std::shared_ptr<Entry>& entry);
  void append_warm_hit_ledger(const Entry& entry);
  void append_rejected_ledger(const JobRequest& request, std::uint64_t key,
                              const std::string& error);
  JobStatus status_of(const Entry& entry) const;

  ServerConfig config_;
  StageCache cache_;
  ShardedJobQueue queue_;
  mutable std::mutex jobs_m_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> jobs_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  std::mutex drain_m_;  // serializes drain() callers
  bool joined_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> cold_runs_{0};
  std::atomic<std::uint64_t> warm_hits_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> in_flight_{0};
};

}  // namespace scs
