// Quickstart: synthesize a verified polynomial controller for the inverted
// pendulum of the paper's Example 1, end to end, through the public API.
//
//   1. DDPG trains a DNN controller that keeps the state inside the safe
//      shell (Section 3.1).
//   2. Algorithm 1 PAC-approximates it with a low-degree polynomial
//      (Section 3.2).
//   3. A barrier certificate for the closed loop is generated by SOS
//      relaxation and independently validated (Section 4).
//
// Run:  ./quickstart [episodes]     (default 150; SCS_LOG=1 for progress)
// [episodes] is a whole number >= 1; anything else exits 2 with the usage.
#include <climits>
#include <iostream>

#include "cli_args.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"

int main(int argc, char** argv) {
  using namespace scs;

  int episodes = 150;
  if (argc > 2 || (argc == 2 && !parse_int(argv[1], 1, INT_MAX, episodes))) {
    std::cerr << "[episodes] needs a positive integer\n"
              << "usage: " << argv[0] << " [episodes]\n";
    return 2;
  }

  const Benchmark pendulum = make_benchmark(BenchmarkId::kC1);
  std::cout << "System: " << pendulum.name << " (n = "
            << pendulum.ccds.num_states
            << ", field degree " << pendulum.ccds.field_degree() << ")\n"
            << "Theta: ball of radius 2.2;  X_u: outside radius 2.5\n\n";

  PipelineConfig config;
  config.seed = 2024;
  config.rl_episodes = episodes;
  // Keep the quickstart snappy: cap the scenario sample counts (the honest
  // eps for the capped K is recomputed automatically; drop the cap to get
  // the paper-exact Theorem-3 counts).
  config.pac_fit.max_samples = 20000;

  const SynthesisResult result = synthesize(pendulum, config);

  std::cout << "RL stage (" << result.rl_seconds << " s): actor "
            << result.dnn_structure << ", eval safety rate "
            << result.rl_eval.safety_rate << "\n";
  std::cout << "PAC stage (" << result.pac_seconds << " s): degree "
            << result.pac.model.degree << " surrogate, e = "
            << result.pac.model.error << " at eps = " << result.pac.model.eps
            << " (K = " << result.pac.model.samples << ")\n";
  if (!result.controller.empty())
    std::cout << "  p(x) = " << result.controller[0].to_string(4) << "\n";

  if (result.barrier.success) {
    std::cout << "Barrier stage (" << result.barrier_seconds
              << " s): certificate of degree " << result.barrier.degree
              << "\n  B(x) = " << result.barrier.barrier.to_string(4) << "\n";
    std::cout << "Validation: " << result.validation.detail << "\n";
  } else {
    std::cout << "Barrier stage failed: " << result.barrier.failure_reason
              << "\n";
  }
  std::cout << "\n=> " << (result.success ? "SAFE controller synthesized"
                                          : "synthesis failed")
            << "\n";
  return result.success ? 0 : 1;
}
