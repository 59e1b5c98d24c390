#include "util/fault_injector.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "util/log.hpp"

namespace scs {

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kCholeskyPivot:
      return "cholesky";
    case FaultSite::kSdpStall:
      return "sdp";
    case FaultSite::kNanBoundary:
      return "nan";
    case FaultSite::kStoreCorrupt:
      return "store_corrupt";
    case FaultSite::kCount:
      break;
  }
  return "?";
}

namespace {

/// The whole of `text` as a decimal integer that fits 64 bits.
bool parse_whole_u64(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

FaultConfig parse_fault_config(const char* seed, const char* rate,
                               const char* max_fires, const char* sites) {
  FaultConfig config;
  const auto reject = [&](const char* name, const char* value,
                          const char* want) {
    config.ignored.push_back(std::string("ignoring ") + name + "='" + value +
                             "' (" + want + ")");
  };
  if (seed != nullptr && *seed != '\0') {
    if (parse_whole_u64(seed, &config.seed))
      config.armed = true;
    else
      reject("SCS_FAULT_SEED", seed,
             "not a whole number; the injector stays disarmed");
  }
  if (rate != nullptr) {
    char* end = nullptr;
    const double v = std::strtod(rate, &end);
    // The negated test also rejects NaN.
    if (end == rate || *end != '\0' || !(v >= 0.0 && v <= 1.0))
      reject("SCS_FAULT_RATE", rate, "not a number in [0, 1]");
    else
      config.rate = v;
  }
  if (max_fires != nullptr && !parse_whole_u64(max_fires, &config.max_fires))
    reject("SCS_FAULT_MAX_FIRES", max_fires, "not a whole number");
  if (sites != nullptr) {
    std::array<bool, static_cast<int>(FaultSite::kCount)> on{};
    std::string_view rest(sites);
    bool known = true;
    while (known) {
      const std::size_t comma = rest.find(',');
      const std::string_view name = rest.substr(0, comma);
      known = false;
      for (int i = 0; i < static_cast<int>(FaultSite::kCount); ++i)
        if (name == to_string(static_cast<FaultSite>(i))) on[i] = known = true;
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
    if (known)
      config.sites = on;
    else
      reject("SCS_FAULT_SITES", sites,
             "want a comma list of cholesky,sdp,nan,store_corrupt");
  }
  return config;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() { configure_from_env(); }

void FaultInjector::configure_from_env() {
  const FaultConfig config = parse_fault_config(
      std::getenv("SCS_FAULT_SEED"), std::getenv("SCS_FAULT_RATE"),
      std::getenv("SCS_FAULT_MAX_FIRES"), std::getenv("SCS_FAULT_SITES"));
  for (const std::string& message : config.ignored)
    log_info("fault-injector: ", message);
  if (!config.armed) return;
  arm(config.seed, config.rate, config.max_fires);
  for (int i = 0; i < kNumSites; ++i)
    site_on_[i].store(config.sites[i], std::memory_order_relaxed);
  log_info("fault-injector: armed from SCS_FAULT_SEED=", config.seed,
           " rate=", rate_, " max_fires=", max_fires_);
}

void FaultInjector::arm(std::uint64_t seed, double rate,
                        std::uint64_t max_fires) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_.seed(seed);
  rate_ = rate;
  max_fires_ = max_fires;
  for (int i = 0; i < kNumSites; ++i) {
    site_on_[i].store(true, std::memory_order_relaxed);
    fires_[i].store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::arm_site(FaultSite site, bool on) {
  site_on_[static_cast<int>(site)].store(on, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  enabled_.store(false, std::memory_order_relaxed);
  for (int i = 0; i < kNumSites; ++i) {
    site_on_[i].store(false, std::memory_order_relaxed);
    fires_[i].store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::should_fire(FaultSite site) {
  if (!enabled()) return false;
  const int s = static_cast<int>(site);
  if (!site_on_[s].load(std::memory_order_relaxed)) return false;
  if (fires_[s].load(std::memory_order_relaxed) >= max_fires_) return false;
  double draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  if (draw >= rate_) return false;
  fires_[s].fetch_add(1, std::memory_order_relaxed);
  log_debug("fault-injector: fired at site ", to_string(site));
  return true;
}

double FaultInjector::perturb_pivot(FaultSite site, double value) {
  if (!should_fire(site)) return value;
  return -(std::fabs(value) + 1.0);
}

double FaultInjector::corrupt(FaultSite site, double value) {
  if (!should_fire(site)) return value;
  return std::numeric_limits<double>::quiet_NaN();
}

std::uint64_t FaultInjector::fires(FaultSite site) const {
  return fires_[static_cast<int>(site)].load(std::memory_order_relaxed);
}

}  // namespace scs
