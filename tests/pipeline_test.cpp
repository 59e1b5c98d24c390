// End-to-end pipeline tests (fast mode): stages wire together, artifacts
// are consistent, and the decoupled entry point works with external laws.
#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.hpp"

namespace scs {
namespace {

/// The provably safe gravity-compensating pendulum law used to decouple the
/// PAC + barrier stages from RL stochasticity.
ControlLaw pendulum_teacher() {
  return [](const Vec& x) {
    const double x1 = x[0];
    const double u = 9.875 * x1 - 1.56 * x1 * x1 * x1 +
                     0.056 * std::pow(x1, 5) - x1 - 2.0 * x[1];
    return Vec{u};
  };
}

TEST(Pipeline, StagesTwoToFourOnPendulumTeacher) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 3;
  const SynthesisResult result =
      synthesize_from_law(bench, pendulum_teacher(), cfg);
  ASSERT_TRUE(result.success) << result.failure_stage << ": "
                              << result.barrier.failure_reason;
  EXPECT_FALSE(result.controller.empty());
  EXPECT_GE(result.pac.model.degree, 1);
  EXPECT_TRUE(result.barrier.success);
  EXPECT_TRUE(result.validation.passed) << result.validation.detail;
  EXPECT_GT(result.barrier_seconds, 0.0);
}

TEST(Pipeline, SurrogateStaysCloseToTeacher) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 4;
  const SynthesisResult result =
      synthesize_from_law(bench, pendulum_teacher(), cfg);
  ASSERT_TRUE(result.success);
  // Spot-check |p(x) - u(x)| <= e on fresh points.
  Rng rng(99);
  const auto law = pendulum_teacher();
  // The PAC error is on the normalized scale; the physical surrogate's
  // error bound is e * control_bound.
  const double bound = bench.ccds.control_bound;
  int violations = 0;
  for (int i = 0; i < 500; ++i) {
    const Vec x = bench.ccds.domain.sample(rng);
    if (std::fabs(result.controller[0].evaluate(x) - law(x)[0]) >
        result.pac.model.error * bound + 1e-9)
      ++violations;
  }
  // Theorem 3: violation probability <= eps (here eps is fast-mode-capped,
  // so grant generous slack).
  EXPECT_LT(violations, 500 * 0.2);
}

TEST(Pipeline, FullRlPipelineOnToyIntegrator) {
  // A custom easy benchmark keeps the RL stage reliable in unit tests.
  Benchmark bench;
  bench.id = BenchmarkId::kC1;
  bench.name = "toy-int";
  bench.ccds.name = "toy-int";
  bench.ccds.num_states = 1;
  bench.ccds.num_controls = 1;
  bench.ccds.open_field = {Polynomial::variable(2, 1)};
  const Box box = Box::centered(1, 3.0);
  bench.ccds.init_set = SemialgebraicSet::ball(Vec{0.0}, 0.5);
  bench.ccds.domain = SemialgebraicSet::from_box(box);
  bench.ccds.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0}, 2.0, box);
  bench.ccds.control_bound = 1.0;
  bench.hidden_layers = {16, 16};
  bench.rl = {40, 80, 0.05};
  bench.pac.eps_list = {0.1, 0.05};

  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.rl_episodes = 40;
  cfg.seed = 5;
  const SynthesisResult result = synthesize(bench, cfg);
  // The RL stage ran and produced a structure string; the certificate may
  // or may not verify at this training budget, but every stage must report.
  EXPECT_EQ(result.dnn_structure, "1-16-16-1");
  EXPECT_FALSE(result.pac.trace.empty());
  EXPECT_GT(result.rl_seconds, 0.0);
  if (!result.success) {
    EXPECT_FALSE(result.failure_stage.empty());
  } else {
    EXPECT_TRUE(result.validation.passed);
  }
}

TEST(Pipeline, FastModeCapsSampleCounts) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.fast_mode = true;
  cfg.seed = 6;
  const SynthesisResult result =
      synthesize_from_law(bench, pendulum_teacher(), cfg);
  for (const auto& row : result.pac.trace)
    EXPECT_LE(row.samples_used, 2000u);
}

}  // namespace
}  // namespace scs
