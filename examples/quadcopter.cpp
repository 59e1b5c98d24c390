// C10: the 12-state linearized quadrotor -- the paper's largest benchmark.
// Demonstrates that the pipeline scales to dimension 12: a degree-1
// surrogate controller and a degree-2 barrier certificate, exactly the
// (d_p, d_B) = (1, 2) row of Table 2.
//
// Run:  ./quadcopter [episodes]     (default 150)
// [episodes] is a whole number >= 1; anything else exits 2 with the usage.
#include <climits>
#include <iostream>

#include "cli_args.hpp"
#include "core/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace scs;

  int episodes = 150;
  if (argc > 2 || (argc == 2 && !parse_int(argv[1], 1, INT_MAX, episodes))) {
    std::cerr << "[episodes] needs a positive integer\n"
              << "usage: " << argv[0] << " [episodes]\n";
    return 2;
  }

  const Benchmark quad = make_benchmark(BenchmarkId::kC10);
  std::cout << "System: 12-state linearized quadrotor (single collective-"
               "thrust input)\n"
            << "Theta: ball r=0.4, X_u: outside r=1.5, Psi: [-2,2]^12\n\n";

  PipelineConfig config;
  config.seed = 10;
  config.rl_episodes = episodes;
  config.pac_fit.max_samples = 20000;  // drop for paper-exact K

  const SynthesisResult result = synthesize(quad, config);

  std::cout << "RL: " << result.dnn_structure << " actor, safety rate "
            << result.rl_eval.safety_rate << " (" << result.rl_seconds
            << " s)\n";
  std::cout << "PAC: degree " << result.pac.model.degree << ", e = "
            << result.pac.model.error << ", K = " << result.pac.model.samples
            << " (" << result.pac_seconds << " s)\n";
  if (result.barrier.success) {
    std::cout << "Barrier: degree " << result.barrier.degree << " in "
              << result.barrier_seconds << " s\n";
    std::cout << "Validation: " << result.validation.detail << "\n";
    std::cout << "\n=> verified safe controller for a 12-dimensional system\n";
  } else {
    std::cout << "Barrier failed: " << result.barrier.failure_reason << "\n";
  }
  return result.success ? 0 : 1;
}
