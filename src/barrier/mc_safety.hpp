// Monte-Carlo safety estimation with PAC-style confidence: the statistical
// counterpart of the barrier certificate, for systems (or horizons) where
// a certificate is not available. Complements Section 5's empirical claims.
#pragma once

#include <cstdint>

#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

struct McSafetyConfig {
  std::size_t rollouts = 1000;
  double dt = 0.01;
  std::size_t max_steps = 2000;
};

struct McSafetyResult {
  std::size_t rollouts = 0;
  std::size_t violations = 0;
  double violation_rate = 0.0;
  /// One-sided Hoeffding upper confidence bound on the true violation
  /// probability: P(violation) <= violation_rate + sqrt(ln(1/eta)/(2N))
  /// with confidence 1 - eta, eta = 1e-6 (mc_safety.cpp).
  double violation_upper_bound = 1.0;
};

/// Estimate the closed-loop violation probability from Theta under a
/// control law by i.i.d. rollouts.
McSafetyResult estimate_safety(const Ccds& system, const ControlLaw& law,
                               const McSafetyConfig& config, Rng& rng);

/// Same for a polynomial controller (unclamped, as verified by the BC).
McSafetyResult estimate_safety(const Ccds& system,
                               const std::vector<Polynomial>& controller,
                               const McSafetyConfig& config, Rng& rng);

}  // namespace scs
