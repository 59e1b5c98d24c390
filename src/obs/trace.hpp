// RAII trace spans exported as Chrome trace-event JSON.
//
// Spans record wall-clock begin/end (steady clock, nanosecond resolution)
// plus a small per-thread id, and are written out as complete "X" events --
// load the file in chrome://tracing or https://ui.perfetto.dev to see the
// pipeline's stage nesting, per-solver-iteration instants, and cross-thread
// fan-out on a timeline.
//
// Constraints mirror obs/metrics.hpp: a single relaxed atomic load per site
// when disabled, and no feedback into the computation -- timestamps exist
// only in the exported file, never in cached artifacts or results, so
// tracing cannot perturb bitwise determinism.
//
// Activation: env SCS_TRACE=<path> arms collection at first use and writes
// the file at process exit; trace_start()/trace_write() do the same
// programmatically (PipelineConfig::obs, synthesize_cli --trace).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scs {

struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;    // small stable per-thread id (0 = first seen)
  std::int64_t ts_ns = 0;   // begin, relative to the trace clock origin
  std::int64_t dur_ns = 0;  // 0 for instant events
  char phase = 'X';         // 'X' = complete span, 'i' = instant
};

/// Collection gate: one relaxed atomic load. First call also arms from the
/// SCS_TRACE environment variable (non-empty => enabled + atexit export).
bool trace_enabled();

/// Enable collection and remember `path` as the default export target. A
/// second call while already collecting keeps the first path (the
/// synthesize_many fan-out may race several identical configs).
void trace_start(const std::string& path);

/// Disable collection (buffered events are kept until cleared/written).
void trace_stop();

/// Export everything collected so far as Chrome trace-event JSON to `path`
/// (default: the path given to trace_start / SCS_TRACE). Returns false when
/// no path is known or on I/O failure. Does not clear the buffer.
bool trace_write(const std::string& path = "");

/// Drop all buffered events (tests).
void trace_clear();

/// Copy of the buffered events (tests; order = completion order).
std::vector<TraceEvent> trace_snapshot();

/// Number of events dropped after the buffer cap was hit.
std::uint64_t trace_dropped();

/// Stable small id of the calling thread (assigned on first use).
std::uint32_t trace_thread_id();

/// Record an instant event (e.g. one solver iteration). Call sites guard
/// with trace_enabled().
void trace_instant(const char* name);

/// RAII span: records one complete event from construction to destruction.
/// Construction with tracing disabled costs one relaxed load; such a span
/// stays inactive even if tracing is enabled before it closes.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  /// Dynamic-name overload (e.g. "synthesize:" + benchmark).
  explicit TraceSpan(std::string name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// End the span now (records the event; the destructor becomes a no-op).
  /// For sections whose locals must outlive the span.
  void close();

 private:
  bool active_;
  std::string name_;
  std::int64_t start_ns_ = 0;
};

}  // namespace scs
