#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/json_writer.hpp"

namespace scs {

namespace {

/// Hard cap on buffered events: protects long traced runs from unbounded
/// memory growth. ~56 bytes/event => the cap is a few hundred MB worst
/// case; overflow is counted and reported in the exported file.
constexpr std::size_t kMaxEvents = 1 << 22;

struct TraceState {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint32_t> next_tid{0};
  std::chrono::steady_clock::time_point origin;
  std::mutex mu;  // guards events + path
  std::vector<TraceEvent> events;
  std::string path;

  TraceState() : origin(std::chrono::steady_clock::now()) {
    const char* env = std::getenv("SCS_TRACE");
    if (env != nullptr && *env != '\0') {
      path = env;
      enabled.store(true, std::memory_order_relaxed);
      std::atexit([] { trace_write(); });
    }
  }
};

TraceState& state() {
  static TraceState* s = new TraceState;  // leaked: usable from atexit
  return *s;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - state().origin)
      .count();
}

void push_event(TraceEvent&& e) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.events.size() >= kMaxEvents) {
    s.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.events.push_back(std::move(e));
}

}  // namespace

bool trace_enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void trace_start(const std::string& path) {
  TraceState& s = state();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.path.empty()) s.path = path;
  }
  s.enabled.store(true, std::memory_order_relaxed);
}

void trace_stop() {
  state().enabled.store(false, std::memory_order_relaxed);
}

bool trace_write(const std::string& path) {
  TraceState& s = state();
  std::vector<TraceEvent> events;
  std::string target = path;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (target.empty()) target = s.path;
    events = s.events;
  }
  if (target.empty()) return false;
  std::ofstream out(target, std::ios::trunc);
  if (!out) return false;

  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("droppedEvents").value(s.dropped.load(std::memory_order_relaxed));
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value("scs");
    w.key("ph").value(std::string(1, e.phase));
    // Chrome trace timestamps are microseconds; fractional values keep the
    // nanosecond resolution.
    w.key("ts").value(static_cast<double>(e.ts_ns) / 1e3);
    if (e.phase == 'X')
      w.key("dur").value(static_cast<double>(e.dur_ns) / 1e3);
    else
      w.key("s").value("t");  // instant scope: thread
    w.key("pid").value(0);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

void trace_clear() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.events.clear();
  s.dropped.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> trace_snapshot() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.events;
}

std::uint64_t trace_dropped() {
  return state().dropped.load(std::memory_order_relaxed);
}

std::uint32_t trace_thread_id() {
  thread_local std::uint32_t id =
      state().next_tid.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void trace_instant(const char* name) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.tid = trace_thread_id();
  e.ts_ns = now_ns();
  e.phase = 'i';
  push_event(std::move(e));
}

TraceSpan::TraceSpan(const char* name) : active_(trace_enabled()) {
  if (!active_) return;
  name_ = name;
  start_ns_ = now_ns();
}

TraceSpan::TraceSpan(std::string name) : active_(trace_enabled()) {
  if (!active_) return;
  name_ = std::move(name);
  start_ns_ = now_ns();
}

void TraceSpan::close() {
  if (!active_) return;
  active_ = false;
  TraceEvent e;
  e.name = std::move(name_);
  e.tid = trace_thread_id();
  e.ts_ns = start_ns_;
  e.dur_ns = now_ns() - start_ns_;
  e.phase = 'X';
  push_event(std::move(e));
}

TraceSpan::~TraceSpan() { close(); }

}  // namespace scs
