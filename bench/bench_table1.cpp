// E1 -- regenerates TABLE 1: the Algorithm-1 trace on Example 1 (pendulum).
//
// Stage 1 trains the DNN controller with DDPG exactly as in Section 3.1
// (set SCS_T1_EPISODES to change the budget); Algorithm 1 then runs with the
// paper's parameters: eta = 1e-6, tau = 0.05, eps schedule
// {0.1, 0.01, 0.001, 0.0001}, max degree 4, and the full Theorem-3 sample
// counts (SCS_FAST=1 caps K at 20000 for a quick smoke run; SCS_T1_MAXK=N
// caps it at N). SCS_T1_EPISODES and SCS_T1_MAXK take a whole number >= 1;
// any other value names the variable and exits 2 before training.
//
// Paper's reference rows (Table 1):
//   d=1  eps=0.0001  K=356311  e=0.150963
//   d=2  eps=0.001   K=41632   e=0.065265
//   d=3  eps=0.001   K=49632   e=0.029328
#include <cstdlib>
#include <iostream>
#include <limits>

#include "../examples/cli_args.hpp"
#include "core/report.hpp"
#include "pac/pac_fit.hpp"
#include "rl/ddpg.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

int bad_env(const char* name, const char* value) {
  std::cerr << name << " must be a whole number >= 1, not '" << value
            << "'\n";
  return 2;
}

}  // namespace

int main() {
  using namespace scs;
  const bool fast = std::getenv("SCS_FAST") != nullptr;
  int episodes = fast ? 40 : 250;
  if (const char* v = std::getenv("SCS_T1_EPISODES");
      v != nullptr &&
      !parse_int(v, 1, std::numeric_limits<int>::max(), episodes))
    return bad_env("SCS_T1_EPISODES", v);
  PacFitOptions opts;
  if (const char* v = std::getenv("SCS_T1_MAXK");
      v != nullptr &&
      !parse_uint(v, 1, std::numeric_limits<std::uint64_t>::max(),
                  opts.max_samples))
    return bad_env("SCS_T1_MAXK", v);
  if (fast) opts.max_samples = 20000;

  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  std::cout << "=== Table 1: Algorithm 1 on Example 1 (pendulum) ===\n";
  std::cout << "threads: " << parallel_threads()
            << " (SCS_THREADS to change)\n";
  std::cout << "training DNN controller (" << bench.hidden_layers.size()
            << " hidden layers of " << bench.hidden_layers.front()
            << "), " << episodes << " episodes...\n";

  Rng rng(2024);
  EnvConfig env_cfg;
  env_cfg.dt = bench.rl.dt;
  env_cfg.max_steps = bench.rl.steps_per_episode;
  ControlEnv env(bench.ccds, env_cfg);
  DdpgConfig ddpg_cfg;
  ddpg_cfg.actor_hidden = bench.hidden_layers;
  DdpgAgent agent(2, 1, ddpg_cfg, rng);
  Stopwatch rl_sw;
  agent.train(env, episodes, rng);
  const EvalResult eval = agent.evaluate(env, 25, rng);
  std::cout << "  done in " << rl_sw.seconds() << " s; eval safety rate "
            << eval.safety_rate << "\n\n";

  // Algorithm 1 approximates the *normalized* actor output (what the tanh
  // output layer emits), as in the pipeline; see DESIGN.md 2b.
  const Mlp actor = agent.actor();
  const ScalarFn channel = [&actor](const Vec& x) {
    return actor.forward(x)[0];
  };

  Rng pac_rng(7);
  Stopwatch pac_sw;
  const PacResult pac =
      pac_approximate(channel, bench.ccds.domain, bench.pac, pac_rng, opts);

  std::cout << format_table1(pac, bench.pac.tau);
  std::cout << "\n(paper:  d=1 e=0.150963 | d=2 e=0.065265 | d=3 e=0.029328;"
            << "\n absolute e depends on the trained DNN -- the shape to"
            << "\n reproduce is e decreasing with d and acceptance once"
            << "\n e <= tau = " << bench.pac.tau << ")\n";
  std::cout << "\nAlgorithm 1 total: " << pac_sw.seconds() << " s; "
            << (pac.success ? "accepted" : "did not reach tau")
            << " at degree " << pac.model.degree << " with e = "
            << pac.model.error << "\n";
  return 0;
}
