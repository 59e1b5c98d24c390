// Seeded generator of random polynomial control-system families.
//
// C1..C10 are ten fixed points of a huge input space; the fuzz campaign
// (examples/fuzz_cli, ROADMAP item 4a) needs an unbounded supply of fresh
// polynomial CCDS instances with controllable difficulty. Each generated
// system draws every knob -- state dimension, field degree, spectral radius
// of the linearization, geometry -- from its own Rng substream, so system
// `index` of family `seed` is bitwise-identical across thread counts,
// processes, and machines: `Rng(seed).fork_streams(index + 1)[index]` is
// the only entropy source (see util/rng.hpp on fork_streams ordering).
//
// Difficulty is shaped, not arbitrary: the linear part is Q D Q^T with Q a
// product of random Givens rotations and D block-diagonal (2x2 rotation-
// scaled blocks for complex eigenpairs), so the prescribed spectral radius
// is hit *exactly* rather than approximately; nonlinear terms are scaled by
// 1/box^(d-1) so they stay comparable to the linear part over the domain
// instead of blowing up near the corners.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "systems/benchmarks.hpp"

namespace scs {

/// Knob *ranges* for one family. A concrete system draws its knobs from
/// these ranges using only its (seed, index) substream.
struct FamilyConfig {
  std::uint64_t seed = 1;

  /// State dimensions to draw from (uniform over the list).
  std::vector<std::size_t> state_dims = {2, 3};
  /// Control inputs per system.
  std::size_t num_controls = 1;

  /// Field degree d_f drawn uniformly in [min_degree, max_degree]; the
  /// realized field always contains at least one term of the drawn degree.
  int min_degree = 1;
  int max_degree = 3;

  /// Spectral radius of the open-loop linearization at the origin, drawn
  /// uniformly in [min_spectral_radius, max_spectral_radius] and realized
  /// exactly (see header comment).
  double min_spectral_radius = 0.3;
  double max_spectral_radius = 1.5;
  /// Probability that an eigenpair sits in the right half plane (locally
  /// unstable -- the controller has to work for its verdict).
  double unstable_fraction = 0.25;

  /// Std-dev of nonlinear coefficients before the 1/box^(d-1) rescale.
  double nonlinear_scale = 0.3;
  /// Expected extra nonlinear terms per state component (on top of the one
  /// forced degree-d_f term).
  double nonlinear_density = 1.0;

  // Safety geometry: Theta = centered ball, Psi = centered box; X_u is the
  // outside of a larger ball (shell), or -- with probability
  // obstacle_fraction -- a ball offset from the origin (obstacle, as in C9).
  double theta_radius_lo = 0.4;
  double theta_radius_hi = 0.8;
  double shell_gap_lo = 0.6;
  double shell_gap_hi = 1.2;
  double box_margin = 0.5;
  double obstacle_fraction = 0.25;

  /// Actuator limit |u| <= control_bound.
  double control_bound = 3.0;

  // Pipeline budgets for the generated benchmarks (fuzzing wants small).
  int rl_episodes = 60;
  int pac_max_degree = 3;
  std::vector<std::size_t> hidden_layers = {16, 16};
};

/// The knobs one generated system actually drew -- recorded for the
/// campaign's (n, degree, spectral-radius) success-rate buckets.
struct FamilyDescriptor {
  std::uint64_t seed = 0;
  std::size_t index = 0;
  std::size_t num_states = 0;
  std::size_t num_controls = 0;
  int degree = 1;                 // drawn (== realized) field degree
  double spectral_radius = 0.0;   // exact spectral radius of the linear part
  bool locally_unstable = false;  // any eigenvalue in the right half plane
  bool obstacle = false;          // obstacle unsafe set (vs shell)
  double theta_radius = 0.0;
  double unsafe_radius = 0.0;     // shell radius / obstacle radius
  double box_half_width = 0.0;
};

struct GeneratedSystem {
  Benchmark benchmark;  // id == BenchmarkId::kGenerated, validated
  FamilyDescriptor descriptor;
};

/// Canonical name of system `index` of family `seed`: "F<seed>-<index>".
/// Disjoint from "C1".."C10" by construction, and the Benchmark hash also
/// folds the distinct id, so stage-cache keys can never collide.
std::string family_system_name(std::uint64_t seed, std::size_t index);

/// Generate system `index` of the family. Bitwise-reproducible from
/// (config, index) alone; independent of thread count and of how many other
/// systems are generated.
GeneratedSystem generate_system(const FamilyConfig& config, std::size_t index);

/// Generate systems 0..count-1. Element i is bitwise-identical to
/// generate_system(config, i).
std::vector<GeneratedSystem> generate_family(const FamilyConfig& config,
                                             std::size_t count);

/// Content digest of a generated system (benchmark content + descriptor);
/// the cross-process seed-stability fingerprint in the tests.
std::uint64_t generated_system_digest(const GeneratedSystem& sys);

void hash_append(Fnv1a& h, const FamilyDescriptor& d);

}  // namespace scs
