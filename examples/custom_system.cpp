// Bring your own system: define a CCDS from scratch (a controlled Van der
// Pol oscillator), wrap it as a Benchmark, and run the synthesis pipeline.
//
// This is the template to copy when applying the library to a new plant.
#include <iostream>

#include "core/pipeline.hpp"

int main() {
  using namespace scs;

  // ---- 1. Dynamics over (x1, x2, u): a reversed Van der Pol oscillator
  // with damping injection through u.
  //      x1' = x2
  //      x2' = -x1 + 0.8 (1 - x1^2) x2 * (-1) + u
  Ccds sys;
  sys.name = "van-der-pol";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  const auto one = Polynomial::constant(3, 1.0);
  sys.open_field = {
      x2,
      -x1 - (one - x1 * x1) * x2 * 0.8 + u,
  };

  // ---- 2. Safety geometry: start near the origin, never leave the r = 2
  // ball while staying inside the [-3, 3]^2 operating box.
  const Box psi = Box::centered(2, 3.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.8);
  sys.domain = SemialgebraicSet::from_box(psi);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 2.0, psi);
  sys.control_bound = 4.0;
  sys.validate();

  // ---- 3. Wrap as a Benchmark with pipeline budgets.
  Benchmark bench;
  bench.id = BenchmarkId::kC1;  // id is only used for bookkeeping
  bench.name = sys.name;
  bench.ccds = sys;
  bench.hidden_layers = {30, 30, 30};
  bench.rl = {150, 200, 0.02};
  bench.pac.tau = 0.05;

  // ---- 4. Synthesize.
  PipelineConfig config;
  config.seed = 42;
  config.barrier.degree_schedule = {2, 4};  // barrier degrees d_B to try
  config.pac_fit.max_samples = 20000;
  const SynthesisResult result = synthesize(bench, config);

  std::cout << "RL safety rate: " << result.rl_eval.safety_rate << "\n";
  if (!result.controller.empty())
    std::cout << "surrogate controller p(x) = "
              << result.controller[0].to_string(4) << "\n";
  if (result.barrier.success)
    std::cout << "barrier certificate (degree " << result.barrier.degree
              << "): B(x) = " << result.barrier.barrier.to_string(4) << "\n";
  std::cout << (result.success ? "verified safe." : "not verified: ")
            << result.barrier.failure_reason << "\n";
  return result.success ? 0 : 1;
}
