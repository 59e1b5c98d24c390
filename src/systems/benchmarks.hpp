// The Table 2 benchmark suite C1..C10.
//
// C1 is the pendulum of Example 1, verbatim. The paper defines C2..C10 only
// by citation (dimension n_x and field degree d_f are printed in Table 2);
// we reconstruct members of the cited families with exactly the same n_x and
// d_f and Example-1-style safety geometry. See DESIGN.md, "Substitutions".
#pragma once

#include <string>
#include <vector>

#include "systems/ccds.hpp"

namespace scs {

enum class BenchmarkId {
  kC1,   // pendulum [10],            n=2,  d_f=5
  kC2,   // quintic oscillator [18],  n=2,  d_f=5
  kC3,   // 3-D quadratic [6],        n=3,  d_f=2
  kC4,   // coupled cubic pair [5],   n=4,  d_f=3
  kC5,   // quadratic cascade [1],    n=5,  d_f=2
  kC6,   // cubic network [2],        n=6,  d_f=3
  kC7,   // reaction network [11],    n=7,  d_f=2
  kC8,   // reaction network [11],    n=9,  d_f=2
  kC9,   // reaction network with obstacle [11], n=9, d_f=2
  kC10,  // linearized quadrotor [7], n=12, d_f=1
  /// A system produced by the family generator (src/systems/family_gen);
  /// never buildable via make_benchmark. The distinct id is folded into the
  /// benchmark content hash so a generated system can never collide with a
  /// C1..C10 stage-cache entry even if names or dynamics were ever equal.
  kGenerated,
};

/// Algorithm 1's significance level eta (paper: 1e-6 throughout).
inline constexpr double kPacEta = 1e-6;
/// Algorithm 1's |delta e| convergence criterion (paper: 1e-3).
inline constexpr double kPacDeltaETol = 1e-3;

/// PAC approximation settings (Algorithm 1 inputs) tuned per benchmark.
struct PacSettings {
  double tau = 0.05;    // tolerable error threshold (paper: 0.05)
  int max_degree = 4;   // paper: 4
  std::vector<double> eps_list = {0.1, 0.01, 0.001, 0.0001};
};

/// RL training budget per benchmark (scaled down by fast mode).
struct RlBudget {
  int episodes = 200;
  int steps_per_episode = 200;
  double dt = 0.02;
};

struct Benchmark {
  BenchmarkId id;
  std::string name;
  Ccds ccds;
  std::vector<std::size_t> hidden_layers;  // e.g. {30,30,30,30,30}
  PacSettings pac;
  RlBudget rl;
};

/// Build one benchmark by id.
Benchmark make_benchmark(BenchmarkId id);

/// All ten ids, in Table 2 order.
std::vector<BenchmarkId> all_benchmark_ids();

/// Human-readable name ("C1".."C10").
std::string benchmark_name(BenchmarkId id);

// Cache-key digests (see src/store): every field that influences a stage's
// output must be folded in here -- add a field, add a hash_append line.
void hash_append(Fnv1a& h, const PacSettings& s);
void hash_append(Fnv1a& h, const RlBudget& b);
/// Full benchmark content: name, system, network sizes, budgets.
void hash_append(Fnv1a& h, const Benchmark& b);

}  // namespace scs
