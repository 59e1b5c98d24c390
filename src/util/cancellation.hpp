// Cooperative cancellation and wall-clock deadlines for synthesis jobs.
//
// A JobControl is shared between a job's owner (synthesize_cli's deadline,
// fuzz_cli's campaign budget) and the code doing the work. The owner calls
// cancel() or arms a deadline; the workers poll stop_requested() at stage
// boundaries and inside the solver iteration loops (SDP interior point,
// revised simplex) and unwind cooperatively -- no thread is ever killed, no
// lock is ever abandoned.
//
// Design constraints:
//   1. Polling must be cheap enough for an inner iteration loop: cancelled()
//      is one relaxed atomic load; deadline_expired() is one load plus a
//      steady_clock read only when a deadline is armed.
//   2. Observation only: a JobControl never enters cache keys, hashes, or
//      serialized artifacts. Two runs that differ only in their control
//      produce bitwise-identical results up to the preemption point.
//   3. Thread-safe by construction: all state is atomics; any thread may
//      cancel while any number of workers poll.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace scs {

class JobControl {
 public:
  /// Why a job was asked to stop (kCancelled wins when both apply: an
  /// explicit cancel is a stronger signal than a timer).
  enum class StopReason { kNone, kCancelled, kDeadline };

  /// Request cooperative cancellation. Idempotent; any thread.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Arm (or re-arm) a wall-clock deadline `seconds` from now. Non-positive
  /// values expire immediately.
  void set_deadline_after(double seconds);

  bool deadline_expired() const;

  StopReason stop_reason() const {
    if (cancelled()) return StopReason::kCancelled;
    if (deadline_expired()) return StopReason::kDeadline;
    return StopReason::kNone;
  }

  /// The single check the solver loops poll.
  bool stop_requested() const {
    return cancelled() || deadline_expired();
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock time_since_epoch in nanoseconds; 0 = no deadline armed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

/// "CANCELLED" / "DEADLINE" / "" -- the ledger-verdict spelling of a stop
/// reason (empty for kNone so callers can append it verbatim).
const char* to_string(JobControl::StopReason reason);

/// Convenience: `control` may be null (the overwhelmingly common case);
/// null never requests a stop.
inline bool stop_requested(const JobControl* control) {
  return control != nullptr && control->stop_requested();
}

}  // namespace scs
