#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/report.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace scs {

namespace {

void bump(const char* name) {
  if (!metrics_enabled()) return;
  MetricsRegistry::instance().counter(name).add(1);
}

/// Correlation id of a request: the client's id, or the hex config key for
/// anonymous in-process submits.
std::string request_rid(const JobRequest& request, std::uint64_t key) {
  return request.id.empty() ? hash_to_hex(key) : request.id;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
  }
  return "?";
}

SynthesisServer::SynthesisServer(const ServerConfig& config)
    : config_(config),
      cache_(config.store),
      queue_(config.queue_capacity) {
  const int n = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  log_info("serve: server up (", n, " worker(s), queue capacity ",
           queue_.capacity(), ", cache ", cache_.enabled() ? "on" : "off",
           ")");
}

SynthesisServer::~SynthesisServer() { drain(); }

SynthesisServer::Submit SynthesisServer::submit(const JobRequest& request) {
  Submit out;
  Stopwatch submit_sw;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.submitted");
  // Pre-key rejections correlate on the client's id alone.
  std::optional<TraceIdScope> id_scope;
  if (trace_enabled() && !request.id.empty()) id_scope.emplace(request.id);
  if (draining()) {
    out.kind = Submit::Kind::kRejected;
    out.error = "server is draining";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.rejected");
    trace_instant("serve.reject");
    append_rejected_ledger(request, 0, out.error);
    return out;
  }
  if (!benchmark_id_from_name(request.benchmark)) {
    out.kind = Submit::Kind::kRejected;
    out.error = "unknown benchmark '" + request.benchmark + "'";
    rejected_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.rejected");
    trace_instant("serve.reject");
    append_rejected_ledger(request, 0, out.error);
    return out;
  }

  SynthesisJob job = make_job(request, config_.store, config_.ledger_path);
  const std::uint64_t key = job.config_key();
  out.key = key;
  const std::string rid = request_rid(request, key);
  if (trace_enabled()) {
    id_scope.reset();
    id_scope.emplace(rid);
    trace_instant("serve.submit");
  }

  std::shared_ptr<Entry> entry;
  std::shared_ptr<Entry> hit;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it != jobs_.end()) {
      hit = it->second;
    } else {
      entry = std::make_shared<Entry>(request, std::move(job), key);
      entry->rid = rid;
      entry->submit_trace_ns = trace_enabled() ? trace_now_ns() : 0;
      jobs_.emplace(key, entry);
    }
  }
  if (hit != nullptr) {
    // Dedupe path: only the inserting thread ever enqueues a key, so a
    // duplicate can never trigger a second cold synthesis.
    bool done;
    {
      std::lock_guard<std::mutex> elk(hit->m);
      done = (hit->state == JobState::kDone);
    }
    if (done) {
      out.kind = Submit::Kind::kWarmHit;
      warm_hits_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.warm_hits");
      trace_instant("serve.warm_hit");
      append_warm_hit_ledger(*hit);
      if (metrics_enabled()) {
        // Whole warm-hit submit path in microseconds: the latency a client
        // pays when the answer is already in memory (fleet SLO input).
        MetricsRegistry::instance().histogram("serve.warm_hit_us").observe(
            static_cast<std::uint64_t>(submit_sw.seconds() * 1e6));
      }
    } else {
      out.kind = Submit::Kind::kDuplicate;
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.duplicates");
      trace_instant("serve.dup_attach");
    }
    return out;
  }

  auto task = [this, entry] { run_entry(entry); };
  switch (queue_.push(request.priority, std::move(task))) {
    case ShardedJobQueue::Push::kAccepted:
      out.kind = Submit::Kind::kAccepted;
      if (metrics_enabled()) {
        MetricsRegistry::instance().gauge("serve.queue_depth").set(
            static_cast<std::int64_t>(queue_.size()));
      }
      return out;
    case ShardedJobQueue::Push::kFull:
      out.error = "queue full";
      out.retry_after_seconds = config_.retry_after_seconds;
      overflow_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.overflow");
      trace_instant("serve.overflow");
      break;
    case ShardedJobQueue::Push::kClosed:
      out.error = "server is draining";
      break;
  }
  // Backpressure / drain race: withdraw the half-registered entry so a
  // retry of the same key is not stranded behind a job that never runs.
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it != jobs_.end() && it->second == entry) jobs_.erase(it);
  }
  out.kind = Submit::Kind::kRejected;
  rejected_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.rejected");
  trace_instant("serve.reject");
  // Backpressure rejections are retryable (the spool keeps the request in
  // the inbox and resubmits), so they carry no terminal ledger record --
  // only the overflow counter above. A drain-race rejection is terminal.
  if (out.retry_after_seconds == 0.0)
    append_rejected_ledger(request, key, out.error);
  return out;
}

std::shared_ptr<const SynthesisResult> SynthesisServer::wait(
    std::uint64_t key) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it == jobs_.end()) return nullptr;
    entry = it->second;
  }
  std::unique_lock<std::mutex> elk(entry->m);
  entry->cv.wait(elk, [&] { return entry->state == JobState::kDone; });
  return entry->result;
}

std::shared_ptr<const SynthesisResult> SynthesisServer::result(
    std::uint64_t key) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it == jobs_.end()) return nullptr;
    entry = it->second;
  }
  std::lock_guard<std::mutex> elk(entry->m);
  return entry->state == JobState::kDone ? entry->result : nullptr;
}

JobStatus SynthesisServer::status_of(const Entry& entry) const {
  JobStatus s;
  s.key = entry.key;
  s.benchmark = entry.request.benchmark;
  std::lock_guard<std::mutex> elk(entry.m);
  s.id = entry.request.id.empty() ? hash_to_hex(entry.key) : entry.request.id;
  s.state = entry.state;
  s.queue_seconds = (entry.state == JobState::kQueued)
                        ? entry.queued_sw.seconds()
                        : entry.queue_seconds;
  s.run_seconds = entry.run_seconds;
  if (entry.result != nullptr) s.verdict = entry.result->verdict;
  return s;
}

std::optional<JobStatus> SynthesisServer::status(std::uint64_t key) const {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it == jobs_.end()) return std::nullopt;
    entry = it->second;
  }
  return status_of(*entry);
}

std::vector<JobStatus> SynthesisServer::jobs() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    entries.reserve(jobs_.size());
    for (const auto& [key, entry] : jobs_) entries.push_back(entry);
  }
  std::vector<JobStatus> out;
  out.reserve(entries.size());
  for (const auto& entry : entries) out.push_back(status_of(*entry));
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) { return a.key < b.key; });
  return out;
}

bool SynthesisServer::cancel(std::uint64_t key) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lk(jobs_m_);
    auto it = jobs_.find(key);
    if (it == jobs_.end()) return false;
    entry = it->second;
  }
  {
    std::lock_guard<std::mutex> elk(entry->m);
    if (entry->state == JobState::kDone) return false;
  }
  entry->control.cancel();
  bump("serve.cancel_requests");
  if (trace_enabled()) {
    TraceIdScope id_scope(entry->rid);
    trace_instant("serve.cancel_request");
  }
  return true;
}

void SynthesisServer::drain() {
  draining_.store(true, std::memory_order_release);
  queue_.close();
  std::lock_guard<std::mutex> lk(drain_m_);
  if (joined_) return;
  for (std::thread& t : workers_) t.join();
  joined_ = true;
  log_info("serve: drained (", cold_runs_.load(), " cold run(s), ",
           warm_hits_.load(), " warm hit(s), ", rejected_.load(),
           " rejection(s))");
}

void SynthesisServer::worker_loop() {
  std::function<void()> task;
  while (queue_.pop(task)) {
    task();
    task = nullptr;
    if (metrics_enabled()) {
      MetricsRegistry::instance().gauge("serve.queue_depth").set(
          static_cast<std::int64_t>(queue_.size()));
    }
  }
}

void SynthesisServer::run_entry(const std::shared_ptr<Entry>& entry) {
  // The whole cold run (queue-wait close, solve, result publication)
  // correlates on the request id; the pipeline re-installs the same id via
  // JobContext::request_id for its own span tree and pool fan-out.
  std::optional<TraceIdScope> id_scope;
  if (trace_enabled()) {
    id_scope.emplace(entry->rid);
    trace_complete("serve.queue_wait", entry->submit_trace_ns);
  }
  {
    std::lock_guard<std::mutex> elk(entry->m);
    entry->state = JobState::kRunning;
    entry->queue_seconds = entry->queued_sw.seconds();
  }
  if (metrics_enabled()) {
    MetricsRegistry::instance().histogram("serve.queue_wait_ms").observe(
        static_cast<std::uint64_t>(entry->queue_seconds * 1e3));
  }
  // The deadline arms at start-of-run: queue wait must not eat the budget.
  if (entry->request.deadline_seconds > 0.0)
    entry->control.set_deadline_after(entry->request.deadline_seconds);

  JobContext ctx;
  ctx.control = &entry->control;
  ctx.cache = &cache_;
  ctx.source = "serve";
  ctx.request_id = entry->rid;

  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_enabled()) {
    MetricsRegistry::instance().gauge("serve.in_flight").set(
        static_cast<std::int64_t>(in_flight_.load(std::memory_order_relaxed)));
  }
  Stopwatch run_sw;
  std::shared_ptr<SynthesisResult> result;
  try {
    result = std::make_shared<SynthesisResult>(entry->job.run(ctx));
  } catch (const std::exception& e) {
    // The pipeline fences stage exceptions itself; this catches setup-level
    // failures so one bad job can never take a worker down.
    result = std::make_shared<SynthesisResult>();
    result->benchmark = entry->request.benchmark;
    result->verdict = "UNVERIFIED";
    result->failure_stage = "serve";
    result->failure_message = e.what();
    log_info("serve: job ", hash_to_hex(entry->key), " threw: ", e.what());
  }
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  cold_runs_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.cold_runs");
  if (result->verdict == "CANCELLED" || result->verdict == "DEADLINE") {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.cancelled");
    trace_instant("serve.cancelled");
  }
  if (metrics_enabled()) {
    MetricsRegistry::instance().gauge("serve.in_flight").set(
        static_cast<std::int64_t>(in_flight_.load(std::memory_order_relaxed)));
    MetricsRegistry::instance().histogram("serve.run_ms").observe(
        static_cast<std::uint64_t>(run_sw.seconds() * 1e3));
  }
  {
    TraceSpan publish_span("serve.result_publish");
    std::lock_guard<std::mutex> elk(entry->m);
    entry->run_seconds = run_sw.seconds();
    entry->result = std::move(result);
    entry->state = JobState::kDone;
  }
  entry->cv.notify_all();
}

void SynthesisServer::append_warm_hit_ledger(const Entry& entry) {
  const std::string path = resolve_ledger_path(config_.ledger_path);
  if (path.empty()) return;
  std::shared_ptr<SynthesisResult> result;
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> elk(entry.m);
    result = entry.result;
    seed = entry.request.seed;
  }
  if (result == nullptr) return;
  // One ledger record per *job*, warm hits included: the cold run's record
  // came from the pipeline (source "serve"); hits are distinguishable by
  // source so drain audits can count cold-vs-warm exactly.
  ledger_append(path, ledger_record(*result, entry.key, seed, "serve-hit"));
}

void SynthesisServer::append_rejected_ledger(const JobRequest& request,
                                             std::uint64_t key,
                                             const std::string& error) {
  const std::string path = resolve_ledger_path(config_.ledger_path);
  if (path.empty()) return;
  // Rejections never ran, so there is no pipeline record to lean on; a
  // minimal synthesis-kind record (verdict REJECTED, source
  // "serve-rejected") keeps every refused request visible to fleet
  // aggregation's lost-request and verdict-mix accounting.
  SynthesisResult result;
  result.benchmark = request.benchmark;
  result.verdict = "REJECTED";
  result.failure_stage = "serve";
  result.failure_message = error;
  ledger_append(path,
                ledger_record(result, key, request.seed, "serve-rejected"));
}

}  // namespace scs
