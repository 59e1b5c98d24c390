// Seed stability and content guarantees of the random system-family
// generator (src/systems/family_gen): a family is bitwise-reproducible
// from (seed, index) alone -- across thread counts, across generate_family
// vs generate_system, and across process runs (checked-in fingerprint) --
// and generated systems can never collide with a C1..C10 stage-cache entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "store/stage_cache.hpp"
#include "systems/family_gen.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

FamilyConfig test_config() {
  FamilyConfig cfg;
  cfg.seed = 42;
  cfg.state_dims = {2, 3, 4};
  cfg.min_degree = 1;
  cfg.max_degree = 3;
  return cfg;
}

/// Combined digest of a whole family -- the cross-process fingerprint.
std::uint64_t family_digest(const std::vector<GeneratedSystem>& family) {
  Fnv1a h;
  for (const GeneratedSystem& sys : family)
    hash_append(h, generated_system_digest(sys));
  return h.digest();
}

TEST(FamilyGen, IndexedGenerationMatchesFamily) {
  const FamilyConfig cfg = test_config();
  const std::vector<GeneratedSystem> family = generate_family(cfg, 12);
  ASSERT_EQ(family.size(), 12u);
  for (std::size_t i = 0; i < family.size(); ++i) {
    const GeneratedSystem single = generate_system(cfg, i);
    EXPECT_EQ(generated_system_digest(single),
              generated_system_digest(family[i]))
        << "system " << i;
    EXPECT_EQ(single.benchmark.name, family[i].benchmark.name);
  }
}

TEST(FamilyGen, BitwiseIdenticalAcrossThreadCounts) {
  const FamilyConfig cfg = test_config();
  set_parallel_threads(1);
  const std::vector<GeneratedSystem> f1 = generate_family(cfg, 12);
  set_parallel_threads(4);
  const std::vector<GeneratedSystem> f4 = generate_family(cfg, 12);
  set_parallel_threads(0);
  ASSERT_EQ(f1.size(), f4.size());
  for (std::size_t i = 0; i < f1.size(); ++i) {
    EXPECT_EQ(generated_system_digest(f1[i]), generated_system_digest(f4[i]))
        << "system " << i;
    // Full-precision coefficient strings must agree exactly, not merely
    // within tolerance (same contract as parallel_determinism_test).
    ASSERT_EQ(f1[i].benchmark.ccds.open_field.size(),
              f4[i].benchmark.ccds.open_field.size());
    for (std::size_t c = 0; c < f1[i].benchmark.ccds.open_field.size(); ++c)
      EXPECT_EQ(f1[i].benchmark.ccds.open_field[c].to_string(17),
                f4[i].benchmark.ccds.open_field[c].to_string(17));
  }
}

// The checked-in fingerprint pins the family format across process runs
// and machines: any change to the draw order, the knob set, or the
// numeric construction shows up here. Update the constant ONLY alongside a
// deliberate format change (which orphans previously generated families).
// Re-pinned once when Benchmark lost its unused barrier-degree schedule (was
// e4cc1f48f8246ba5): the digest hashes the whole Benchmark, while each
// system's dynamics, sets and descriptor are unchanged.
TEST(FamilyGen, CrossProcessFingerprintIsStable) {
  const std::uint64_t digest = family_digest(generate_family(test_config(), 8));
  EXPECT_EQ(hash_to_hex(digest), "29b4fc06927a9201");
}

TEST(FamilyGen, DescriptorMatchesRealizedSystem) {
  const FamilyConfig cfg = test_config();
  std::set<std::string> names;
  for (const GeneratedSystem& sys : generate_family(cfg, 24)) {
    const FamilyDescriptor& d = sys.descriptor;
    const Ccds& ccds = sys.benchmark.ccds;
    EXPECT_EQ(sys.benchmark.id, BenchmarkId::kGenerated);
    EXPECT_EQ(sys.benchmark.name, family_system_name(cfg.seed, d.index));
    EXPECT_TRUE(names.insert(sys.benchmark.name).second) << "duplicate name";
    EXPECT_EQ(ccds.num_states, d.num_states);
    EXPECT_EQ(ccds.num_controls, d.num_controls);
    EXPECT_NE(std::find(cfg.state_dims.begin(), cfg.state_dims.end(),
                        d.num_states),
              cfg.state_dims.end());
    EXPECT_EQ(ccds.field_degree(), d.degree);
    EXPECT_GE(d.degree, cfg.min_degree);
    EXPECT_LE(d.degree, cfg.max_degree);
    EXPECT_GE(d.spectral_radius, cfg.min_spectral_radius);
    EXPECT_LE(d.spectral_radius, cfg.max_spectral_radius);
    if (d.obstacle) {
      // Obstacle geometry: a small unsafe ball offset from the origin; only
      // the enclosing box must dominate both radii.
      EXPECT_LT(d.unsafe_radius, d.box_half_width);
      EXPECT_LT(d.theta_radius, d.box_half_width);
    } else {
      // Shell geometry: Theta strictly inside the safe ball, box outside.
      EXPECT_LT(d.theta_radius, d.unsafe_radius);
      EXPECT_LT(d.unsafe_radius, d.box_half_width);
    }
    EXPECT_NO_THROW(ccds.validate());
  }
}

TEST(FamilyGen, TwoByTwoLinearizationHitsSpectralRadiusExactly) {
  FamilyConfig cfg = test_config();
  cfg.state_dims = {2};
  cfg.min_degree = 1;
  cfg.max_degree = 1;  // pure linear: the field *is* the linearization
  int checked = 0;
  for (const GeneratedSystem& sys : generate_family(cfg, 16)) {
    const Ccds& ccds = sys.benchmark.ccds;
    // Extract A from the linear coefficients of the open field.
    double a[2][2];
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t j = 0; j < 2; ++j) {
        std::vector<int> e(3, 0);
        e[j] = 1;
        a[i][j] = ccds.open_field[i].coefficient(Monomial(e));
      }
    // Eigenvalues of a 2x2: modulus^2 from trace/determinant. The generator
    // draws a conjugated rotation-scaled block, so both eigenvalues share
    // one modulus == the prescribed spectral radius.
    const double tr = a[0][0] + a[1][1];
    const double det = a[0][0] * a[1][1] - a[0][1] * a[1][0];
    const double disc = tr * tr / 4.0 - det;
    double radius = 0.0;
    if (disc <= 0.0) {
      radius = std::sqrt(det);  // complex pair: |lambda|^2 = det
    } else {
      const double r1 = std::fabs(tr / 2.0 + std::sqrt(disc));
      const double r2 = std::fabs(tr / 2.0 - std::sqrt(disc));
      radius = std::max(r1, r2);
    }
    EXPECT_NEAR(radius, sys.descriptor.spectral_radius,
                1e-9 * std::max(1.0, sys.descriptor.spectral_radius));
    ++checked;
  }
  EXPECT_EQ(checked, 16);
}

// Satellite guarantee: a generated system can never resolve to a C1..C10
// stage-cache entry. The name prefix ("F<seed>-<i>" vs "C<k>"), the
// distinct BenchmarkId folded into the benchmark hash, and the content
// hash of the dynamics each suffice alone; this checks the end product --
// pairwise-distinct RL stage keys (every downstream key folds the RL key).
TEST(FamilyGen, StageKeysDisjointFromBuiltinBenchmarks) {
  const PipelineConfig config;
  std::set<std::uint64_t> keys;
  const auto add_key = [&](const Benchmark& bench) {
    const std::uint64_t key = rl_stage_key(bench, config.seed, DdpgConfig{},
                                           EnvConfig{}, bench.rl.episodes, 25);
    EXPECT_TRUE(keys.insert(key).second)
        << "stage-key collision for " << bench.name;
  };
  for (const auto id : all_benchmark_ids()) add_key(make_benchmark(id));
  for (const GeneratedSystem& sys : generate_family(test_config(), 16))
    add_key(sys.benchmark);
  EXPECT_EQ(keys.size(), 10u + 16u);
}

// Same system content under a different family seed must produce different
// names AND different keys (seed is part of the name, name is hashed).
TEST(FamilyGen, FamilySeedChangesEverySystem) {
  FamilyConfig a = test_config();
  FamilyConfig b = test_config();
  b.seed = 43;
  const auto fa = generate_family(a, 4);
  const auto fb = generate_family(b, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(fa[i].benchmark.name, fb[i].benchmark.name);
    EXPECT_NE(generated_system_digest(fa[i]), generated_system_digest(fb[i]));
  }
}

}  // namespace
}  // namespace scs
