// Deterministic fault injection for the numeric stack.
//
// The robustness layer (math/robust_solve, opt/sdp retries, pac degradation)
// exists to survive ill-conditioned instances that are rare in the benchmark
// suite. The FaultInjector manufactures those instances on demand so the
// recovery paths are *testable*: it can sabotage factorization pivots, freeze
// interior-point progress, and corrupt values crossing layer boundaries with
// NaNs -- all from one seeded stream, so a failing run replays exactly.
//
// Activation:
//   - env var SCS_FAULT_SEED=<uint64> arms the injector at process start;
//     SCS_FAULT_RATE (in [0, 1], default 0.05), SCS_FAULT_MAX_FIRES (a
//     whole number, default 8 per site), and SCS_FAULT_SITES (comma list of
//     "cholesky,sdp,nan,store_corrupt"; default all) tune it. Each value is
//     parsed whole (parse_fault_config); a malformed one is logged and
//     ignored, and a malformed seed leaves the injector disarmed;
//   - tests arm it programmatically with arm() / disarm().
//
// Cost when disarmed: one relaxed atomic load per interrogation site, no
// locks, no RNG draws. Hot loops guard with `if (fault_injection_enabled())`.
//
// Firing is budgeted: each site stops injecting after `max_fires` hits, which
// models transient faults (a sabotaged pivot on the first attempt, a clean
// retry) rather than a permanently broken machine.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace scs {

enum class FaultSite : int {
  kCholeskyPivot = 0,  // drive a diagonal pivot negative before the sqrt
  kSdpStall,           // suppress an interior-point step (forces stall)
  kNanBoundary,        // replace a value crossing a layer boundary with NaN
  kStoreCorrupt,       // flip a byte in a loaded artifact-store blob
  kCount,
};

/// Short site name used by SCS_FAULT_SITES and log lines.
const char* to_string(FaultSite site);

/// The injector settings that the SCS_FAULT_* variables ask for.
struct FaultConfig {
  bool armed = false;  // a valid seed was given
  std::uint64_t seed = 0;
  double rate = 0.05;
  std::uint64_t max_fires = 8;
  std::array<bool, static_cast<int>(FaultSite::kCount)> sites{};  // all on
  std::vector<std::string> ignored;  // one message per rejected value
  FaultConfig() { sites.fill(true); }
};

/// Parses the SCS_FAULT_SEED, _RATE, _MAX_FIRES and _SITES values (null
/// when unset). Each value must be whole: the seed and max fires a decimal
/// integer that fits 64 bits, the rate a number in [0, 1], the sites a
/// comma list of known site names. A rejected value keeps its default and
/// adds a message to `ignored`; without a valid seed nothing is armed.
FaultConfig parse_fault_config(const char* seed, const char* rate,
                               const char* max_fires, const char* sites);

class FaultInjector {
 public:
  /// Process-wide instance. First access reads the SCS_FAULT_* environment.
  static FaultInjector& instance();

  /// True when any site may fire. This is the only call allowed on hot paths
  /// without the enabled() guard; it is a single relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Arm programmatically (tests): deterministic stream from `seed`, firing
  /// probability `rate` per probe, at most `max_fires` injections per site.
  /// All sites are armed; narrow with arm_site().
  void arm(std::uint64_t seed, double rate, std::uint64_t max_fires = 8);

  /// Enable or disable a single site (the injector must be armed to fire).
  void arm_site(FaultSite site, bool on);

  /// Disarm everything and clear counters.
  void disarm();

  /// Probe a site: true when a fault fires now. Draws from the shared
  /// deterministic stream (mutex-guarded; only reached when armed).
  bool should_fire(FaultSite site);

  /// Pivot sabotage: when firing, returns a negative value that defeats the
  /// Cholesky pivot test; otherwise returns `value` unchanged.
  double perturb_pivot(FaultSite site, double value);

  /// Boundary corruption: when firing, returns quiet NaN instead of `value`.
  double corrupt(FaultSite site, double value);

  /// Telemetry for tests and postmortems.
  std::uint64_t fires(FaultSite site) const;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector();
  void configure_from_env();

  static constexpr int kNumSites = static_cast<int>(FaultSite::kCount);

  std::atomic<bool> enabled_{false};
  std::array<std::atomic<bool>, kNumSites> site_on_{};
  std::array<std::atomic<std::uint64_t>, kNumSites> fires_{};
  std::uint64_t max_fires_ = 0;
  double rate_ = 0.0;
  std::mutex mu_;  // guards engine_
  std::mt19937_64 engine_;
};

/// Free-function guard for hot paths.
inline bool fault_injection_enabled() {
  return FaultInjector::instance().enabled();
}

}  // namespace scs
