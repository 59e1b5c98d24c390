// The one Theorem-1 checker. Every verdict on an extracted barrier
// certificate -- the barrier ladder's per-arm gate, pipeline stage 4 and the
// audit that re-checks VERIFIED results -- comes from check_conditions():
//
//   (i)   B(x) >= -m                     on Theta
//   (ii)  B(x) <   m                     on X_u
//   (ii') L_f B(x) - lambda(x) B(x) >= rho - m'   on Psi
//
// (ii') is the identity the Putinar program certifies (its Psi multipliers
// are non-negative on Psi), and it implies Theorem 1's condition (iii): on
// the zero level set lambda B vanishes, so L_f B >= rho > 0 there. So no
// level-set band is sampled, and a tampered lambda is detectable even when
// the barrier itself is fine. Each margin is tolerance * max(1, max |p|),
// with p the polynomial the condition evaluates (B for (i) and (ii), the
// decrease L_f B - lambda B for (ii')) and the maximum taken over the Psi
// points: the rigorous margins live in the SOS rho / rho'; this only absorbs
// floating-point and Gram rounding. A condition that saw no point fails.
//
// The callers differ only in their points and their tolerance:
//   gate     500 Theta / 500 X_u / 2000 Psi draws from the arm's own stream,
//            tolerance 2e-3 (barrier/synthesis.cpp, run_arm);
//   stage 4  validate_barrier: ValidationConfig's counts from the caller's
//            Rng (the pipeline's seed + 3000), tolerance 2e-3, plus
//            closed-loop rollouts from Theta (estimate_safety);
//   audit    independent_check: a grid of each set plus Monte-Carlo draws
//            from its own fixed seed, tolerance 5e-3, plus per-cell interval
//            enclosures that *certify* a condition where the dimension
//            allows (a proof up to rounding, not just a sampled check).
//
// The module includes nothing from opt/ and nothing from sos/ except the
// interval arithmetic, so it shares no solver code with the program that
// produced the certificate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "poly/polynomial.hpp"
#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;
struct BarrierResult;

/// One condition's verdict. `worst` is the extremal sampled value (minimum
/// for the lower bounds (i) and (ii'), maximum for (ii)); the condition
/// passed iff it clears `threshold` on the right side, or the interval bound
/// certified it.
struct ConditionCheck {
  std::string name;  // "init" | "unsafe" | "lambda_identity"
  bool passed = false;
  bool certified = false;  // interval bound alone already proves it
  double worst = 0.0;
  double threshold = 0.0;
  /// max |p| over the Psi points: the margin's reference magnitude.
  double scale = 0.0;
  /// Certified extremal bound from per-cell interval enclosures (worst
  /// direction); NaN when no interval budget was given or the dimension is
  /// too high for it.
  double interval_bound = 0.0;
  std::size_t points = 0;
  Vec witness;  // location of `worst`
};

/// The points each condition is evaluated on.
struct ConditionPoints {
  std::vector<Vec> init, unsafe, domain;
};

/// `count` points of `set`, drawn in fixed-size chunks from substreams
/// forked off `rng`: bitwise-identical at any thread count. Throws when
/// rejection sampling fails on a set too thin to hit.
std::vector<Vec> draw_points(const SemialgebraicSet& set, std::size_t count,
                             Rng& rng);

/// The Theorem-1 rule: conditions (i), (ii) and (ii') of the certificate
/// (B, lambda) for the closed loop `closed_field`, on `points`. With a
/// nonzero `interval_budget` (cells per set) each condition also gets an
/// interval-certified bound. lambda is required: a variable count other
/// than system.num_states is a PreconditionError, as for B.
std::vector<ConditionCheck> check_conditions(
    const Ccds& system, const std::vector<Polynomial>& closed_field,
    const Polynomial& barrier, const Polynomial& lambda, double rho,
    const ConditionPoints& points, double tolerance,
    std::size_t interval_budget = 0);

/// The first condition that failed; nullptr when all passed.
const ConditionCheck* first_failure(
    const std::vector<ConditionCheck>& conditions);

/// "lambda_identity worst=-0.3 thr=0.00099 at (0.1, -2)": the condition's
/// worst value, its threshold and its witness.
std::string describe(const ConditionCheck& check);

/// Per-condition rows plus a one-line human summary.
struct ConditionReport {
  std::vector<ConditionCheck> conditions;
  std::string detail;

  /// Lookup by condition name; nullptr when absent.
  const ConditionCheck* find(const std::string& name) const;
};

// ---- Stage 4: the pipeline's validation of the certificate it produced.

struct ValidationConfig {
  /// Draws on Theta and on X_u; Psi gets four times as many.
  std::size_t samples_per_set = 4000;
  /// Closed-loop rollouts from Theta that must all avoid X_u.
  std::size_t simulation_rollouts = 20;
  std::size_t simulation_steps = 3000;
};

void hash_append(Fnv1a& h, const ValidationConfig& c);

struct ValidationReport : ConditionReport {
  bool passed = false;
  std::size_t rollouts = 0;
  std::size_t unsafe_rollouts = 0;  // rollouts from Theta that reached X_u
};

/// Validate (B, lambda) for the closed loop under the polynomial controller:
/// the Theorem-1 conditions on fresh draws from `rng`, then the rollouts.
ValidationReport validate_barrier(const Ccds& system,
                                  const std::vector<Polynomial>& controller,
                                  const Polynomial& barrier,
                                  const Polynomial& lambda, double rho,
                                  const ValidationConfig& config, Rng& rng);

// ---- The audit: re-validates a certificate from nothing but the system,
// the controller and the certificate itself (the fuzz campaign's backstop,
// examples/fuzz_cli). Runs from its own seed, unrelated to the pipeline's.

struct IndependentCheckConfig {
  /// Cap on grid cells per condition (per_dim^n <= grid_budget; dimensions
  /// too high for a 2-point-per-axis grid fall back to pure MC).
  std::size_t grid_budget = 4096;
  /// Monte-Carlo samples per set.
  std::size_t mc_samples = 4000;
};

struct IndependentCheckReport : ConditionReport {
  bool accepted = false;
  /// max |B| over the Psi points; margin reference of (i) and (ii).
  double scale = 0.0;
};

/// `rho` is the strict-decrease margin the SOS program claimed
/// (BarrierConfig::rho).
IndependentCheckReport independent_check(
    const Ccds& system, const std::vector<Polynomial>& controller,
    const Polynomial& barrier, const Polynomial& lambda, double rho,
    const IndependentCheckConfig& config = {});

/// Convenience: pull barrier / lambda out of a BarrierResult (rho comes
/// from the caller's BarrierConfig; the result does not store it).
IndependentCheckReport independent_check(
    const Ccds& system, const std::vector<Polynomial>& controller,
    const BarrierResult& result, double rho,
    const IndependentCheckConfig& config = {});

}  // namespace scs
