// Minimal leveled logging to stderr.
//
// Verbosity is controlled by the SCS_LOG environment variable
// (0 = silent, 1 = info, 2 = debug). Benchmarks and examples use info-level
// progress lines; the test suite runs silent by default.
//
// Concurrency: log_line formats the whole line (prefix, tag, message,
// newline) into one string and performs a single locked write, so lines
// from a per-system parallel_for fan-out never interleave mid-line. Each
// line is prefixed with the calling thread's tag -- the benchmark name
// inside a pipeline run (LogTagScope), or "w<N>" on pool workers -- so
// concurrent output stays attributable.
#pragma once

#include <sstream>
#include <string>

namespace scs {

enum class LogLevel { kSilent = 0, kInfo = 1, kDebug = 2 };

/// Current verbosity (initialized from SCS_LOG on first use).
LogLevel log_level();

/// Override the verbosity programmatically (takes precedence over SCS_LOG).
void set_log_level(LogLevel level);

/// Emit one line to stderr if `level` is enabled. The write is atomic with
/// respect to other log_line calls (single locked write of a fully
/// formatted line).
void log_line(LogLevel level, const std::string& message);

/// Thread-local line tag ("" = untagged). Workers set "w<N>"; the pipeline
/// scopes the benchmark name around each run.
void set_log_tag(std::string tag);
const std::string& log_tag();

/// RAII: swap the calling thread's tag, restore the previous one on exit.
class LogTagScope {
 public:
  explicit LogTagScope(std::string tag);
  ~LogTagScope();
  LogTagScope(const LogTagScope&) = delete;
  LogTagScope& operator=(const LogTagScope&) = delete;

 private:
  std::string prev_;
};

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() >= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() >= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

}  // namespace scs
