// Algorithm 1: PAC-model-based polynomial controller synthesis.
//
// Given an evaluatable controller u(x) (typically the trained DNN actor),
// find the lowest-degree polynomial p(x, c) that is a PAC model of u on the
// domain Psi (Definition 4): for each degree d and error rate eps from the
// schedule, draw the Theorem-3 sample count K, solve the scenario program
// (8) exactly (minimax fit), and accept once the error has converged in K
// and is below the tolerance tau.
#pragma once

#include <functional>
#include <vector>

#include "poly/polynomial.hpp"
#include "systems/benchmarks.hpp"
#include "systems/semialgebraic.hpp"
#include "util/cancellation.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;

/// Scalar function to approximate (one control channel).
using ScalarFn = std::function<double(const Vec&)>;

/// A PAC model p with P(|p - u| <= error) >= 1 - eps at confidence 1 - eta.
struct PacModel {
  Polynomial poly;
  double error = 0.0;  // e*
  double eps = 0.0;
  double eta = 0.0;
  std::uint64_t samples = 0;  // K
  int degree = 0;             // d_p
  /// False when the scenario program could not be solved and the model is a
  /// plain least-squares fallback: the Theorem-3 statement does NOT hold for
  /// it (eps is reported as 1). Downstream verification still decides.
  bool pac_valid = true;
};

/// One (d, eps) attempt -- a row of Table 1.
struct PacTraceRow {
  int degree = 0;
  double eta = 0.0;
  /// Effective error rate: equals eps_requested unless K was capped, in
  /// which case it is recomputed from samples_used (Theorem 3) so the PAC
  /// statement stays honest.
  double eps = 0.0;
  /// The schedule's eps before any sample-cap adjustment.
  double eps_requested = 0.0;
  std::uint64_t samples = 0;  // K requested by Theorem 3
  std::uint64_t samples_used = 0;  // actual (== samples unless capped)
  double error = 0.0;              // e
  double delta_e = 0.0;            // |e - previous e| at this degree
  bool converged = false;          // check(error_list)
  bool accepted = false;           // converged and e <= tau
  /// Minimax LP failed; this row's model is a least-squares fallback with no
  /// PAC guarantee (eps forced to 1).
  bool degraded = false;
  /// Non-finite samples screened out at the layer boundary before fitting.
  std::uint64_t dropped_samples = 0;
  double seconds = 0.0;
};

struct PacResult {
  bool success = false;
  PacModel model;  // valid when success (otherwise best attempt)
  std::vector<PacTraceRow> trace;
  /// Best model found at each degree attempted (keyed by degree - 1 order
  /// of appearance). Downstream verification may prefer a lower-degree
  /// surrogate when the primary one defeats the SOS stage.
  std::vector<PacModel> per_degree;
  double total_seconds = 0.0;
};

struct PacFitOptions {
  /// Cap on K; 0 = exact Theorem-3 counts up to the memory guard below.
  /// When capped, the recorded eps is recomputed from the actual sample
  /// count, so the PAC statement stays valid (at a weaker error rate).
  std::uint64_t max_samples = 0;
  /// Hard guard on the design matrix size: K is always clipped so that
  /// K * v doubles stay below this budget (the Theorem-3 count for a
  /// high-degree template at eps = 1e-4 can otherwise demand hundreds of
  /// gigabytes). eps is recomputed as above.
  std::uint64_t max_design_bytes = std::uint64_t{2} << 30;  // 2 GiB
  /// Job-level preemption (borrowed, may be null): checked between (d, eps)
  /// attempts and threaded into the minimax LP solves so a cancellation or
  /// job deadline stops the degree ladder early. Runtime plumbing only --
  /// deliberately excluded from hash_append, so preempted and unpreempted
  /// runs share cache keys.
  const JobControl* control = nullptr;
};

void hash_append(Fnv1a& h, const PacFitOptions& o);

/// Run Algorithm 1 for one scalar control channel.
PacResult pac_approximate(const ScalarFn& fn, const SemialgebraicSet& domain,
                          const PacSettings& settings, Rng& rng,
                          const PacFitOptions& options = {});

/// Multi-channel wrapper (Assumption 2 lifts m = 1; for m > 1 each channel
/// is approximated independently and the worst-channel trace is reported).
struct PacVectorResult {
  bool success = false;
  std::vector<PacModel> models;
  std::vector<PacResult> per_channel;
};

PacVectorResult pac_approximate_vector(
    const std::function<Vec(const Vec&)>& fn, std::size_t output_dim,
    const SemialgebraicSet& domain, const PacSettings& settings, Rng& rng,
    const PacFitOptions& options = {});

}  // namespace scs
