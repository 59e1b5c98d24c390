// Process-wide metrics registry: named counters capturing solver and
// pipeline behavior (SDP iterations/restarts/stalls, simplex pivots,
// factorization regularization retries, PAC samples drawn/dropped,
// artifact-store hits/misses/corruptions, thread-pool steals).
//
// Design constraints, in order:
//   1. Near-zero overhead when disabled. Every instrumentation site guards
//      with `if (metrics_enabled())` -- a single relaxed atomic load -- and
//      caches its instrument in a function-local static, so the disabled
//      cost is one load + one predictable branch, no locks, no lookups.
//   2. No effect on determinism. Instruments only *observe*; nothing in the
//      numeric stack reads them back, and nothing metric-related enters
//      cached artifacts or SynthesisResult numerics.
//   3. Safe concurrent aggregation. All instrument state is relaxed
//      atomics, so pool workers increment freely; totals are exact because
//      fetch_add is atomic regardless of memory order.
//
// Activation: env SCS_METRICS=<path> enables collection at first use and
// dumps the registry as JSON to <path> at process exit; tests and the CLI
// enable programmatically with set_metrics_enabled() / metrics_write().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace scs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time copy of every registered counter, for readers that need
/// to iterate the registry (perfbench's per-layer counters) without
/// touching registration internals. Values are read with relaxed loads, so
/// a snapshot taken under concurrent updates is approximate in the same
/// way every other read here is.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  std::vector<CounterSample> counters;  // sorted by name
};

/// Name -> instrument registry. Instruments are created on first lookup and
/// never destroyed or moved (references stay valid for the process
/// lifetime, so sites may cache them in function-local statics).
/// reset_for_tests() zeroes values without invalidating references.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);

  /// Serialize every registered counter as one JSON object,
  /// {"counters": {name: value, ...}}, sorted by name.
  std::string json() const;

  /// Copy every counter's current value (see MetricsSnapshot).
  MetricsSnapshot snapshot() const;

  /// Zero every counter (tests and bench iterations).
  void reset_for_tests();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

namespace detail {
/// Tri-state collection gate: -1 = not yet armed from the environment,
/// 0 = off, 1 = on. Exposed so metrics_enabled() inlines to a single
/// relaxed load + compare at every instrumentation site.
extern std::atomic<int> g_metrics_state;
/// Slow path (first call only): reads SCS_METRICS, registers the atexit
/// dump when set, and resolves the state to 0/1.
bool metrics_arm_from_env();
}  // namespace detail

/// Collection gate: inlines to one relaxed atomic load and a predictable
/// branch. The first call arms from the SCS_METRICS environment variable
/// (non-empty => enabled + atexit dump).
inline bool metrics_enabled() {
  const int s = detail::g_metrics_state.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return detail::metrics_arm_from_env();
}

/// Enable / disable collection programmatically (overrides the env gate).
void set_metrics_enabled(bool on);

/// Dump path requested via SCS_METRICS ("" when unset).
const std::string& metrics_env_path();

/// Write the registry JSON to `path` (creates/truncates). Returns false on
/// I/O failure.
bool metrics_write(const std::string& path);

}  // namespace scs
