#include "obs/metrics.hpp"

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json_writer.hpp"

namespace scs {

// Counters live in a node-stable map so references handed to callers
// survive any later registration. One mutex guards registration only; the
// hot path (instrument updates) never takes it.
struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl;  // leaked: usable from atexit handlers
  return *impl;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* reg = new MetricsRegistry;
  return *reg;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::string MetricsRegistry::json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : im.counters) w.key(name).value(c->value());
  w.end_object();
  w.end_object();
  return w.str();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters)
    snap.counters.push_back({name, c->value()});
  return snap;
}

void MetricsRegistry::reset_for_tests() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
}

namespace {

/// One-time env arming: resolves g_metrics_state from -1 to 0/1 (without
/// clobbering a concurrent explicit set_metrics_enabled) and registers the
/// atexit dump when SCS_METRICS names a path. Returns the path ("" unset).
const std::string& arm_env_once() {
  static const std::string* path = [] {
    auto* p = new std::string;  // leaked: usable from the atexit handler
    int state = 0;
    const char* env = std::getenv("SCS_METRICS");
    if (env != nullptr && *env != '\0') {
      *p = env;
      state = 1;
      std::atexit([] { metrics_write(metrics_env_path()); });
    }
    int expected = -1;
    detail::g_metrics_state.compare_exchange_strong(expected, state,
                                                    std::memory_order_relaxed);
    return p;
  }();
  return *path;
}

}  // namespace

namespace detail {

std::atomic<int> g_metrics_state{-1};

bool metrics_arm_from_env() {
  arm_env_once();
  return g_metrics_state.load(std::memory_order_relaxed) > 0;
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  arm_env_once();  // keep the SCS_METRICS atexit dump armed regardless
  detail::g_metrics_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

const std::string& metrics_env_path() { return arm_env_once(); }

bool metrics_write(const std::string& path) {
  if (path.empty()) return false;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << MetricsRegistry::instance().json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace scs
