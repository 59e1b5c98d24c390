#include "util/cancellation.hpp"

#include <chrono>
#include <limits>

namespace scs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void JobControl::set_deadline_after(double seconds) {
  const double ns = seconds * 1e9;
  std::int64_t deadline;
  if (ns >= static_cast<double>(std::numeric_limits<std::int64_t>::max()) / 2)
    deadline = std::numeric_limits<std::int64_t>::max();
  else
    deadline = now_ns() + static_cast<std::int64_t>(ns);
  // 0 is the "disarmed" sentinel; an adversarially exact hit just moves the
  // deadline by one nanosecond.
  if (deadline == 0) deadline = 1;
  deadline_ns_.store(deadline, std::memory_order_relaxed);
}

bool JobControl::deadline_expired() const {
  const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
  return d != 0 && now_ns() >= d;
}

const char* to_string(JobControl::StopReason reason) {
  switch (reason) {
    case JobControl::StopReason::kNone:
      return "";
    case JobControl::StopReason::kCancelled:
      return "CANCELLED";
    case JobControl::StopReason::kDeadline:
      return "DEADLINE";
  }
  return "";
}

}  // namespace scs
