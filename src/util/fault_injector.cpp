#include "util/fault_injector.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

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

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() { configure_from_env(); }

void FaultInjector::configure_from_env() {
  const char* seed_env = std::getenv("SCS_FAULT_SEED");
  if (seed_env == nullptr || *seed_env == '\0') return;
  const std::uint64_t seed = std::strtoull(seed_env, nullptr, 10);

  double rate = 0.05;
  if (const char* rate_env = std::getenv("SCS_FAULT_RATE"))
    rate = std::strtod(rate_env, nullptr);
  std::uint64_t max_fires = 8;
  if (const char* fires_env = std::getenv("SCS_FAULT_MAX_FIRES"))
    max_fires = std::strtoull(fires_env, nullptr, 10);

  arm(seed, rate, max_fires);

  if (const char* sites_env = std::getenv("SCS_FAULT_SITES")) {
    for (int i = 0; i < kNumSites; ++i)
      site_on_[i].store(false, std::memory_order_relaxed);
    std::stringstream ss(sites_env);
    std::string name;
    while (std::getline(ss, name, ',')) {
      for (int i = 0; i < kNumSites; ++i)
        if (name == to_string(static_cast<FaultSite>(i)))
          site_on_[i].store(true, std::memory_order_relaxed);
    }
  }
  log_info("fault-injector: armed from SCS_FAULT_SEED=", seed,
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
