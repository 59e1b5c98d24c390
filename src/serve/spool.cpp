#include "serve/spool.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace scs {

namespace fs = std::filesystem;

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return in.good() || in.eof();
}

std::string stem_of(const fs::path& p) { return p.stem().string(); }

/// {"p50":...,"p90":...,"p99":...,"count":...} for one registry histogram;
/// quantiles are null until something was observed (a never-seen latency
/// must not read as 0).
void write_latency_object(JsonWriter& w, const char* key,
                          const Histogram& h) {
  const std::uint64_t count = h.count();
  w.key(key).begin_object();
  w.key("count").value(count);
  if (count == 0) {
    w.key("p50").null();
    w.key("p90").null();
    w.key("p99").null();
  } else {
    w.key("p50").value(h.quantile_upper(0.50));
    w.key("p90").value(h.quantile_upper(0.90));
    w.key("p99").value(h.quantile_upper(0.99));
  }
  w.end_object();
}

}  // namespace

bool spool_init(const SpoolLayout& layout, std::string* error) {
  std::error_code ec;
  for (const std::string& dir :
       {layout.inbox(), layout.results(), layout.ctl(),
        layout.cancel_dir()}) {
    fs::create_directories(dir, ec);
    if (ec) {
      if (error != nullptr)
        *error = "cannot create " + dir + ": " + ec.message();
      return false;
    }
  }
  return true;
}

bool atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out.good()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::string job_result_json(const std::string& id, std::uint64_t key,
                            const SynthesisResult& result, bool warm_hit,
                            double queue_seconds, double run_seconds) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("key").value(hash_to_hex(key));
  w.key("benchmark").value(result.benchmark);
  w.key("verdict").value(result.verdict);
  w.key("success").value(result.success);
  w.key("warm_hit").value(warm_hit);
  w.key("failure_stage").value(result.failure_stage);
  w.key("failure_message").value(result.failure_message);
  w.key("queue_seconds").value(queue_seconds);
  w.key("run_seconds").value(run_seconds);
  w.key("total_seconds").value(result.total_seconds);
  w.key("barrier_degree").value(result.barrier.degree);
  if (result.success) {
    // Precision 17 round-trips the certified doubles exactly: the result
    // file is sufficient input for independent re-validation.
    w.key("certificate").value(result.barrier.barrier.to_string(17));
    w.key("controller").begin_array();
    for (const Polynomial& p : result.controller) w.value(p.to_string(17));
    w.end_array();
  }
  w.end_object();
  return w.str();
}

SpoolRunner::SpoolRunner(SynthesisServer& server, SpoolLayout layout)
    : server_(server), layout_(std::move(layout)) {
  instance_ = fs::path(layout_.root).filename().string();
  if (instance_.empty()) instance_ = layout_.root;
}

bool SpoolRunner::drain_requested() const {
  std::error_code ec;
  return fs::exists(layout_.drain_file(), ec);
}

void SpoolRunner::write_error_result(const std::string& id,
                                     const std::string& error) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("verdict").value("REJECTED");
  w.key("success").value(false);
  w.key("error").value(error);
  w.end_object();
  atomic_write_file(layout_.results() + "/" + id + ".json", w.str());
  ++results_written_;
}

int SpoolRunner::poll_once() {
  apply_cancel_markers();
  if (server_.draining()) {
    // Drain mode: stop ingesting (inbox files stay for the next server
    // instance), only sweep finished jobs and refresh the exposition files.
    sweep_results();
    write_status();
    write_metrics();
    return 0;
  }
  // Ingest in filename order so clients can impose FIFO with zero-padded
  // names; priority inside the queue still wins across files.
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(layout_.inbox(), ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".json") continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  int ingested = 0;
  for (const fs::path& file : files) {
    std::string text;
    if (!read_file(file.string(), &text)) continue;  // retry next poll
    JobRequest request;
    std::string error;
    if (!parse_job_request(text, &request, &error)) {
      write_error_result(stem_of(file), "parse error: " + error);
      fs::remove(file, ec);
      continue;
    }
    // Id-collision guard: a client reusing an explicit id while the first
    // request under that id is still in flight would otherwise overwrite
    // the pending_ entry and orphan the original (its result would never
    // be swept out). Same key is fine -- the submit below dedupes / warm
    // hits onto the in-flight job; a *different* key is a client error and
    // is rejected before it touches the server. (Auto-derived ids hash the
    // key, so a collision there is by construction the same job.)
    if (!request.id.empty()) {
      const auto it = pending_.find(request.id);
      if (it != pending_.end() && it->second.key != serve_key(request)) {
        write_error_result(request.id,
                           "id '" + request.id +
                               "' is already in flight with a different "
                               "configuration");
        fs::remove(file, ec);
        continue;
      }
    }
    const SynthesisServer::Submit submit = server_.submit(request);
    if (submit.kind == SynthesisServer::Submit::Kind::kRejected) {
      if (submit.retry_after_seconds > 0.0) {
        // Backpressure: the inbox is the overflow buffer. Leave this file
        // (and everything after it) for the next poll round.
        log_debug("spool: queue full, deferring ", file.filename().string());
        break;
      }
      write_error_result(stem_of(file), submit.error);
      fs::remove(file, ec);
      continue;
    }
    Pending p;
    p.id = request.id.empty() ? hash_to_hex(submit.key) : request.id;
    p.key = submit.key;
    p.warm_hit = (submit.kind == SynthesisServer::Submit::Kind::kWarmHit);
    if (trace_enabled()) {
      TraceIdScope id_scope(p.id);
      trace_instant("spool.ingest");
    }
    pending_[p.id] = p;
    fs::remove(file, ec);
    ++ingested;
    ++ingested_total_;
  }

  sweep_results();
  write_status();
  write_metrics();
  return ingested;
}

void SpoolRunner::sweep_results() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    const Pending& p = it->second;
    std::shared_ptr<const SynthesisResult> result = server_.result(p.key);
    if (result == nullptr) {
      ++it;
      continue;
    }
    const std::optional<JobStatus> status = server_.status(p.key);
    const double queue_s = status ? status->queue_seconds : 0.0;
    const double run_s = status ? status->run_seconds : 0.0;
    const std::string path = layout_.results() + "/" + p.id + ".json";
    {
      // Closes the request's span tree: submit/ingest -> queue_wait ->
      // synthesize -> result_write, all cut by the same rid.
      std::optional<TraceIdScope> id_scope;
      if (trace_enabled()) id_scope.emplace(p.id);
      TraceSpan write_span("spool.result_write");
      atomic_write_file(path, job_result_json(p.id, p.key, *result,
                                              p.warm_hit, queue_s, run_s));
    }
    ++results_written_;
    it = pending_.erase(it);
  }
}

void SpoolRunner::write_status() const {
  MetricsRegistry& reg = MetricsRegistry::instance();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kStatusSchemaVersion);
  w.key("kind").value("serve_status");
  w.key("instance").value(instance_);
  w.key("draining").value(server_.draining());
  w.key("queue_depth").value(static_cast<std::uint64_t>(server_.queue_depth()));
  w.key("queue_capacity")
      .value(static_cast<std::uint64_t>(server_.config().queue_capacity));
  w.key("in_flight").value(server_.in_flight());
  w.key("retry_after_seconds").value(server_.config().retry_after_seconds);
  w.key("counters").begin_object();
  w.key("submitted").value(server_.submitted());
  w.key("cold_runs").value(server_.cold_runs());
  w.key("warm_hits").value(server_.warm_hits());
  w.key("duplicates").value(server_.duplicates());
  w.key("rejected").value(server_.rejected());
  w.key("cancelled").value(server_.cancelled());
  w.key("overflow").value(server_.overflow());
  w.end_object();
  w.key("pending").value(static_cast<std::uint64_t>(pending_.size()));
  w.key("ingested").value(ingested_total_);
  w.key("results_written").value(results_written_);
  // Latency histograms (ms / us as named). Counts are 0 and quantiles null
  // until the daemon enables metrics collection and traffic arrives.
  w.key("latency").begin_object();
  write_latency_object(w, "queue_wait_ms",
                       reg.histogram("serve.queue_wait_ms"));
  write_latency_object(w, "run_ms", reg.histogram("serve.run_ms"));
  write_latency_object(w, "warm_hit_us", reg.histogram("serve.warm_hit_us"));
  w.end_object();
  w.key("jobs").begin_array();
  for (const JobStatus& s : server_.jobs()) {
    w.begin_object();
    w.key("id").value(s.id);
    w.key("key").value(hash_to_hex(s.key));
    w.key("state").value(to_string(s.state));
    w.key("benchmark").value(s.benchmark);
    w.key("verdict").value(s.verdict);
    w.key("queue_seconds").value(s.queue_seconds);
    w.key("run_seconds").value(s.run_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  atomic_write_file(layout_.status_file(), w.str());
}

void SpoolRunner::write_metrics() const {
  if (!metrics_enabled()) return;
  atomic_write_file(layout_.metrics_file(),
                    prometheus_text(MetricsRegistry::instance().snapshot()));
}

int SpoolRunner::apply_cancel_markers() {
  std::error_code ec;
  std::vector<fs::path> markers;
  for (const auto& entry : fs::directory_iterator(layout_.cancel_dir(), ec)) {
    if (!entry.is_regular_file(ec)) continue;
    markers.push_back(entry.path());
  }
  int cancelled = 0;
  for (const fs::path& marker : markers) {
    const std::string id = marker.filename().string();
    const auto it = pending_.find(id);
    if (it != pending_.end()) {
      if (server_.cancel(it->second.key)) ++cancelled;
      // An already-finished job ignores the cancel; its result is swept
      // normally. Either way the marker is consumed.
      fs::remove(marker, ec);
    } else if (fs::exists(layout_.results() + "/" + id + ".json", ec)) {
      // Job already finished and was swept out of pending_: cancel is a
      // no-op, consume the marker.
      fs::remove(marker, ec);
    } else {
      // Unknown id: the request may still be sitting in the inbox (the
      // client raced the marker ahead of ingestion). Keep the marker so the
      // next poll -- after ingestion -- can apply it.
      log_debug("spool: cancel marker for unknown id '", id, "' deferred");
    }
  }
  return cancelled;
}

bool SpoolRunner::append_daemon_summary() const {
  const std::string path =
      resolve_ledger_path(server_.config().ledger_path);
  if (path.empty()) return false;
  MetricsRegistry& reg = MetricsRegistry::instance();
  JsonWriter w;
  w.begin_object();
  w.key("instance").value(instance_);
  w.key("submitted").value(server_.submitted());
  w.key("cold_runs").value(server_.cold_runs());
  w.key("warm_hits").value(server_.warm_hits());
  w.key("duplicates").value(server_.duplicates());
  w.key("rejected").value(server_.rejected());
  w.key("cancelled").value(server_.cancelled());
  w.key("overflow").value(server_.overflow());
  w.key("ingested").value(ingested_total_);
  w.key("results_written").value(results_written_);
  write_latency_object(w, "queue_wait_ms",
                       reg.histogram("serve.queue_wait_ms"));
  write_latency_object(w, "run_ms", reg.histogram("serve.run_ms"));
  write_latency_object(w, "warm_hit_us", reg.histogram("serve.warm_hit_us"));
  w.end_object();
  return ledger_append_bench("serve_daemon", w.str(), path);
}

}  // namespace scs
