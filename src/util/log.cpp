#include "util/log.hpp"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <optional>

namespace scs {

namespace {
std::optional<LogLevel>& override_level() {
  static std::optional<LogLevel> level;
  return level;
}

std::string& tls_log_tag() {
  thread_local std::string tag;
  return tag;
}

std::mutex& log_mutex() {
  static std::mutex mu;
  return mu;
}

LogLevel env_level() {
  const char* env = std::getenv("SCS_LOG");
  if (env == nullptr) return LogLevel::kSilent;
  const int v = std::atoi(env);
  if (v <= 0) return LogLevel::kSilent;
  if (v == 1) return LogLevel::kInfo;
  return LogLevel::kDebug;
}
}  // namespace

LogLevel log_level() {
  if (override_level().has_value()) return *override_level();
  static const LogLevel from_env = env_level();
  return from_env;
}

void set_log_level(LogLevel level) { override_level() = level; }

void log_line(LogLevel level, const std::string& message) {
  if (log_level() < level) return;
  // Format the complete line first, then emit it with one locked write:
  // three separate stream insertions tear under a per-system fan-out,
  // interleaving fragments of concurrent lines.
  std::string line = "[scs]";
  const std::string& tag = tls_log_tag();
  if (!tag.empty()) {
    line += '[';
    line += tag;
    line += ']';
  }
  line += ' ';
  line += message;
  line += '\n';
  std::lock_guard<std::mutex> lk(log_mutex());
  std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void set_log_tag(std::string tag) { tls_log_tag() = std::move(tag); }

const std::string& log_tag() { return tls_log_tag(); }

LogTagScope::LogTagScope(std::string tag) : prev_(tls_log_tag()) {
  tls_log_tag() = std::move(tag);
}

LogTagScope::~LogTagScope() { tls_log_tag() = std::move(prev_); }

}  // namespace scs
