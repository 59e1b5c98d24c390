// Command-line front end: run the pipeline on a named benchmark and persist
// the verified artifacts (controller, barrier certificate, PAC metadata).
//
//   ./synthesize_cli [options] C3 out.txt [episodes]   # episodes >= 1
//   ./synthesize_cli --load out.txt        # re-validate saved artifacts
//
// Options:
//   --cache-dir <dir>   checkpoint every stage in <dir> (overrides
//                       SCS_CACHE_DIR); a re-run with the same seed and
//                       config resumes from the last finished stage
//   --no-cache          disable the artifact store for this run
//   --trace <file>      export a Chrome trace-event timeline of the run
//                       (open in chrome://tracing or ui.perfetto.dev)
//   --metrics <file>    dump the solver/store/pool metrics registry as JSON
//   --ledger <file>     append this run's record to a JSONL run ledger
//                       (see src/obs/ledger.hpp; SCS_LEDGER is the env
//                       equivalent, report_cli the consumer)
//   --fast              shrunken budgets (smoke tests / CI)
//   --deadline <s>      wall-clock budget in seconds (a positive number);
//                       the run stops at the next stage / solver-iteration
//                       boundary and reports verdict DEADLINE (exit code 1,
//                       no partial cache artifacts)
//   --seed <n>          pipeline seed, a non-negative integer (default
//                       2024); for gen:<i> targets it is also the family
//                       seed
//   --dims <d1,d2,...>  state dimensions of the generated family (gen:<i>
//                       targets only; must match the fuzz_cli invocation)
//
// Besides C1..C10 the benchmark may be "gen:<index>": system <index> of the
// random family defined by --seed/--dims (src/systems/family_gen) -- the
// triage path for a system fuzz_cli flagged, reproduced bit for bit. The
// index is below 100000, the largest fuzz_cli --count.
#include <climits>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "barrier/independent_check.hpp"
#include "cli_args.hpp"
#include "core/artifacts.hpp"
#include "core/job.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "systems/family_gen.hpp"

namespace {

int run_load(const char* path) {
  using namespace scs;
  const SynthesisArtifacts a = load_artifacts_file(path);
  std::cout << "loaded artifacts for " << a.benchmark << " (n = "
            << a.num_states << ")\n"
            << "controller p(x) = " << a.controller[0].to_string(5) << "\n"
            << "barrier B(x)    = " << a.barrier.to_string(5) << "\n"
            << "PAC: degree " << a.pac.degree << ", e = " << a.pac.error
            << ", eps = " << a.pac.eps << ", K = " << a.pac.samples << "\n";
  // Re-validate against the named benchmark if it is one of C1..C10.
  for (const auto id : all_benchmark_ids()) {
    const Benchmark bench = make_benchmark(id);
    if (bench.name != a.benchmark) continue;
    Rng rng(1);
    const ValidationReport report =
        validate_barrier(bench.ccds, a.controller, a.barrier, a.lambda,
                         BarrierConfig{}.rho, ValidationConfig{}, rng);
    std::cout << "re-validation: " << (report.passed ? "PASSED" : "FAILED")
              << " -- " << report.detail << "\n";
    return report.passed ? 0 : 1;
  }
  std::cout << "(not a built-in benchmark; skipping re-validation)\n";
  return 0;
}

void print_usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--cache-dir <dir>] [--no-cache] [--trace <file>]\n"
            << "       [--metrics <file>] [--ledger <file>] [--fast]\n"
            << "       [--deadline <s>] [--seed <n>] [--dims <d1,d2,...>] "
            << "<C1..C10|gen:<index>> <output-file> "
            << "[episodes]\n       " << argv0 << " --load <file>\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scs;
  if (argc >= 3 && std::strcmp(argv[1], "--load") == 0)
    return run_load(argv[2]);

  StoreConfig store;
  ObsConfig obs;
  bool fast = false;
  double deadline_seconds = 0.0;
  std::uint64_t seed = 2024;
  std::vector<std::size_t> dims = {2, 3};
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      if (i + 1 >= argc || !parse_uint(argv[i + 1], 0, UINT64_MAX, seed)) {
        std::cerr << "--seed needs a non-negative integer\n";
        print_usage(argv[0]);
        return 2;
      }
      ++i;
    } else if (arg == "--dims") {
      if (i + 1 >= argc || !parse_dims(argv[i + 1], dims)) {
        std::cerr << "--dims needs a comma-separated list in 1..12\n";
        print_usage(argv[0]);
        return 2;
      }
      ++i;
    } else if (arg == "--no-cache") {
      store.mode = StoreConfig::Mode::kOff;
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        std::cerr << "--cache-dir needs a directory argument\n";
        return 2;
      }
      store.mode = StoreConfig::Mode::kOn;
      store.cache_dir = argv[++i];
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "--trace needs a file argument\n";
        return 2;
      }
      obs.trace_path = argv[++i];
    } else if (arg == "--metrics") {
      if (i + 1 >= argc) {
        std::cerr << "--metrics needs a file argument\n";
        return 2;
      }
      obs.metrics_path = argv[++i];
    } else if (arg == "--ledger") {
      if (i + 1 >= argc) {
        std::cerr << "--ledger needs a file argument\n";
        return 2;
      }
      obs.ledger_path = argv[++i];
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--deadline") {
      if (i + 1 >= argc || !parse_positive(argv[i + 1], deadline_seconds)) {
        std::cerr << "--deadline needs a positive number of seconds\n";
        print_usage(argv[0]);
        return 2;
      }
      ++i;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    print_usage(argv[0]);
    return 2;
  }
  int episodes = 0;  // 0: the benchmark's default
  if (positional.size() > 2 &&
      !parse_int(positional[2].c_str(), 1, INT_MAX, episodes)) {
    std::cerr << "[episodes] needs a positive integer\n";
    print_usage(argv[0]);
    return 2;
  }

  const std::string& name = positional[0];
  Benchmark bench;
  bool resolved = false;
  bool generated = false;
  if (name.rfind("gen:", 0) == 0) {
    // Reproduce system <index> of the fuzz family defined by --seed/--dims
    // (bitwise-identical to what fuzz_cli ran with the same knobs).
    std::uint64_t index = 0;
    if (!parse_uint(name.c_str() + 4, 0, 99999, index)) {
      std::cerr << "gen:<index> needs an integer in 0..99999\n";
      print_usage(argv[0]);
      return 2;
    }
    FamilyConfig family;
    family.seed = seed;
    family.state_dims = dims;
    const GeneratedSystem gs =
        generate_system(family, static_cast<std::size_t>(index));
    bench = gs.benchmark;
    resolved = true;
    generated = true;
    std::cout << "generated system " << bench.name << ": n="
              << gs.descriptor.num_states << ", d_f=" << gs.descriptor.degree
              << ", spectral radius " << gs.descriptor.spectral_radius
              << (gs.descriptor.obstacle ? ", obstacle" : ", shell") << "\n";
  } else {
    for (const auto id : all_benchmark_ids()) {
      Benchmark candidate = make_benchmark(id);
      if (candidate.name != name) continue;
      bench = std::move(candidate);
      resolved = true;
      break;
    }
  }
  if (!resolved) {
    std::cerr << "unknown benchmark '" << name
              << "' (expected C1..C10 or gen:<index>)\n";
    return 2;
  }

  PipelineConfig config;
  config.seed = seed;
  config.store = store;
  config.obs = obs;
  config.fast_mode = fast;
  if (episodes > 0) config.rl_episodes = episodes;
  config.pac_fit.max_samples = 50000;
  // The CLI is a thin client of the job unit fuzz_cli and perfbench run:
  // one SynthesisJob, one optional JobControl.
  const SynthesisJob job(bench, config);
  JobControl control;
  if (deadline_seconds > 0.0) control.set_deadline_after(deadline_seconds);
  JobContext ctx;
  ctx.control = (deadline_seconds > 0.0) ? &control : nullptr;
  ctx.source = "synthesize_cli";
  const SynthesisResult result = job.run(ctx);
  std::cout << "timings: " << stage_timings_json(result) << "\n";
  if (!obs.trace_path.empty())
    std::cout << "trace written to " << obs.trace_path << "\n";
  if (!obs.metrics_path.empty())
    std::cout << "metrics written to " << obs.metrics_path << "\n";
  if (!obs.ledger_path.empty())
    std::cout << "ledger record appended to " << obs.ledger_path << "\n";
  if (result.barrier.success && (generated || result.success)) {
    // Cross-check the certificate with the solver-state-free checker (the
    // fuzz campaign's soundness oracle) and show the per-condition verdicts
    // -- this is the triage view for a flagged system.
    const IndependentCheckReport chk =
        independent_check(bench.ccds, result.controller, result.barrier,
                          config.barrier.rho);
    std::cout << "independent check: " << chk.detail << "\n";
    for (const ConditionCheck& c : chk.conditions) {
      if (c.passed || c.witness.empty()) continue;
      std::cout << "  " << c.name << " witness: (";
      for (std::size_t i = 0; i < c.witness.size(); ++i)
        std::cout << (i ? ", " : "") << c.witness[i];
      std::cout << ")\n";
    }
  }
  if (!result.success) {
    std::cerr << "synthesis failed at stage '" << result.failure_stage
              << "' (verdict " << result.verdict << "): "
              << (result.failure_message.empty() ? result.barrier.failure_reason
                                                 : result.failure_message)
              << "\n";
    return 1;
  }
  save_artifacts_file(artifacts_from(result, bench.ccds.num_states),
                      positional[1]);
  std::cout << "verified controller + certificate written to "
            << positional[1] << "\n";
  return 0;
}
