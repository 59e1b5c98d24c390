// Tests for the 'nncontroller' baseline: joint training mechanics and the
// exponential verification-grid behaviour that reproduces Table 2's "x"
// pattern for n >= 4.
#include <gtest/gtest.h>

#include "baseline/nncontroller.hpp"
#include "systems/benchmarks.hpp"

namespace scs {
namespace {

NnControllerConfig fast_config() {
  NnControllerConfig cfg;
  cfg.train_iterations = 600;
  cfg.verify_budget_seconds = 20.0;
  return cfg;
}

TEST(NnController, RunsOnLowDimensionalSystem) {
  // A benign 2-D system: the baseline should at least produce a structure
  // string and finish within budget (verification outcome may vary with
  // the training budget).
  Ccds sys;
  sys.name = "nn-toy";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {-x1 + u * 0.5, -x2};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.4);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, box);
  sys.control_bound = 1.0;

  const NnControllerResult result = run_nncontroller(sys, fast_config());
  EXPECT_EQ(result.barrier_structure, "2-30-1");
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_GT(result.grid_points, 0u);
}

TEST(NnController, HighDimensionalGridExceedsBudget) {
  // n = 9: the verification grid is astronomically large; the baseline must
  // refuse with the exponential-scaling reason -- the "x" entries of
  // Table 2.
  const Benchmark bench = make_benchmark(BenchmarkId::kC8);
  NnControllerConfig cfg = fast_config();
  cfg.train_iterations = 50;  // training is irrelevant here
  const NnControllerResult result = run_nncontroller(bench.ccds, cfg);
  EXPECT_FALSE(result.verified);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.reason.find("exponential"), std::string::npos)
      << result.reason;
}

TEST(NnController, FourDimensionsAlreadyTooExpensive) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC4);
  NnControllerConfig cfg = fast_config();
  cfg.train_iterations = 50;
  const NnControllerResult result = run_nncontroller(bench.ccds, cfg);
  EXPECT_FALSE(result.verified);
}

}  // namespace
}  // namespace scs
