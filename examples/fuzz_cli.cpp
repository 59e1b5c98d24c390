// Soundness fuzz campaign: drive N generated random systems through the
// full synthesize() pipeline and cross-check every verdict against the
// independent certificate checker (src/barrier/independent_check).
//
//   ./fuzz_cli --seed 2024 --count 64 --dims 2,3 --fast
//              --ledger fuzz.jsonl --summary fuzz.json
//
// The soundness property under attack: a VERIFIED verdict must survive
// re-validation by a checker that shares no state with the solver. Any
// VERIFIED-but-rejected system is a soundness violation; the campaign exits
// nonzero if it finds even one. UNVERIFIED results are fine (fuzzed systems
// are often genuinely hard) -- they only feed the success-rate curves.
//
// Options:
//   --seed <n>        family seed; also the pipeline seed (default 1)
//   --count <n>       systems to generate and run, 1..100000 (default 64)
//   --dims <list>     comma-separated state dimensions to draw from ("2,3")
//   --degree-min/--degree-max <d>    field-degree range, 1 <= min <= max
//                                    (default 1..3)
//   --spectral-min/--spectral-max <r> spectral-radius range, positive with
//                                     min <= max (default 0.3..1.5)
//   --episodes <n>    RL episodes per system, at least 1 (default 40)
//   --fast            shrink every pipeline budget (CI)
//   --threads <n>     worker threads, 1..256 (default: the hardware's)
//   --ledger <file>   append per-system synthesis records + the campaign
//                     summary (kind "bench", source "fuzz_campaign") here
//   --cache-dir <dir> artifact store: re-running the same campaign resumes
//                     from cached stages instead of recomputing
//   --no-cache        disable the artifact store
//   --summary <file>  also write the campaign summary JSON to this file
//   --max-seconds <s> time budget in seconds (a positive number): stop
//                     launching new systems once elapsed (skipped systems
//                     are reported, not failed), and arm a
//                     shared job deadline so in-flight runs preempt at the
//                     next stage/solver boundary (verdict DEADLINE) instead
//                     of overshooting the budget by a full pipeline run
//   --verbose         per-system progress lines
//
// Exit code: 0 = campaign clean, 1 = soundness violation(s), 2 = usage.
#include <algorithm>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/independent_check.hpp"
#include "cli_args.hpp"
#include "core/job.hpp"
#include "core/pipeline.hpp"
#include "obs/json_writer.hpp"
#include "obs/ledger.hpp"
#include "systems/family_gen.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scs;

struct FuzzOutcome {
  FamilyDescriptor desc;
  std::string benchmark;
  std::string verdict;
  std::string failure_stage;
  double total_seconds = 0.0;
  bool ran = false;      // false when the time budget skipped this system
  bool checked = false;  // independent checker ran (a barrier existed)
  bool accepted = false;
  bool violation = false;  // VERIFIED but checker-rejected
  std::string check_detail;
};

struct Bucket {
  std::string label;
  int runs = 0;
  int verified = 0;
  double seconds = 0.0;
};

void bucket_add(std::vector<Bucket>& buckets, const std::string& label,
                const FuzzOutcome& o) {
  for (Bucket& b : buckets) {
    if (b.label != label) continue;
    ++b.runs;
    if (o.verdict == "VERIFIED") ++b.verified;
    b.seconds += o.total_seconds;
    return;
  }
  Bucket b;
  b.label = label;
  b.runs = 1;
  b.verified = (o.verdict == "VERIFIED") ? 1 : 0;
  b.seconds = o.total_seconds;
  buckets.push_back(std::move(b));
}

void write_buckets(JsonWriter& w, const char* key,
                   const std::vector<Bucket>& buckets) {
  w.key(key).begin_array();
  for (const Bucket& b : buckets) {
    w.begin_object();
    w.key("bucket").value(b.label);
    w.key("runs").value(b.runs);
    w.key("verified").value(b.verified);
    w.key("rate").value(b.runs > 0 ? static_cast<double>(b.verified) / b.runs
                                   : 0.0);
    w.key("mean_seconds")
        .value(b.runs > 0 ? b.seconds / b.runs : 0.0);
    w.end_object();
  }
  w.end_array();
}

std::string radius_bucket(double r, double lo, double hi) {
  // Three fixed terciles of the configured range, so the bucket labels are
  // stable across campaigns with the same knobs.
  const double w = (hi - lo) / 3.0;
  const int k = std::min(2, std::max(0, static_cast<int>((r - lo) / w)));
  std::ostringstream os;
  os.precision(3);
  os << "[" << lo + k * w << "," << (k == 2 ? hi : lo + (k + 1) * w) << ")";
  return os.str();
}

void print_usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--seed <n>] [--count <n>] [--dims <d1,d2,...>]\n"
      << "       [--degree-min <d>] [--degree-max <d>]\n"
      << "       [--spectral-min <r>] [--spectral-max <r>] [--episodes <n>]\n"
      << "       [--fast] [--threads <n>] [--ledger <file>]\n"
      << "       [--cache-dir <dir>] [--no-cache] [--summary <file>]\n"
      << "       [--max-seconds <s>] [--verbose]\n";
}

}  // namespace

int main(int argc, char** argv) {
  FamilyConfig family;
  std::uint64_t count = 64;
  int episodes = 40;
  bool fast = false;
  bool verbose = false;
  std::uint64_t threads = 0;  // 0: the hardware default
  double max_seconds = 0.0;
  std::string ledger_path, summary_path;
  StoreConfig store;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed or out-of-range value: the error, the usage line, exit 2.
    const auto reject = [&](const char* what) {
      std::cerr << arg << " needs " << what << ", got '" << argv[i] << "'\n";
      print_usage(argv[0]);
      return 2;
    };
    if (arg == "--seed") {
      if (!parse_uint(next("a number"), 0, UINT64_MAX, family.seed))
        return reject("a non-negative integer");
    } else if (arg == "--count") {
      if (!parse_uint(next("a number"), 1, 100000, count))
        return reject("an integer in 1..100000");
    } else if (arg == "--dims") {
      if (!parse_dims(next("a comma-separated list"), family.state_dims))
        return reject("dimensions in 1..12, e.g. 2,3");
    } else if (arg == "--degree-min") {
      if (!parse_int(next("a degree"), 1, INT_MAX, family.min_degree))
        return reject("a positive integer");
    } else if (arg == "--degree-max") {
      if (!parse_int(next("a degree"), 1, INT_MAX, family.max_degree))
        return reject("a positive integer");
    } else if (arg == "--spectral-min") {
      if (!parse_positive(next("a radius"), family.min_spectral_radius))
        return reject("a positive number");
    } else if (arg == "--spectral-max") {
      if (!parse_positive(next("a radius"), family.max_spectral_radius))
        return reject("a positive number");
    } else if (arg == "--episodes") {
      if (!parse_int(next("a count"), 1, INT_MAX, episodes))
        return reject("a positive integer");
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--threads") {
      if (!parse_uint(next("a count"), 1, 256, threads))
        return reject("an integer in 1..256");
    } else if (arg == "--ledger") {
      ledger_path = next("a file");
    } else if (arg == "--summary") {
      summary_path = next("a file");
    } else if (arg == "--cache-dir") {
      store.mode = StoreConfig::Mode::kOn;
      store.cache_dir = next("a directory");
    } else if (arg == "--no-cache") {
      store.mode = StoreConfig::Mode::kOff;
    } else if (arg == "--max-seconds") {
      if (!parse_positive(next("a duration"), max_seconds))
        return reject("a positive number of seconds");
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      print_usage(argv[0]);
      return 2;
    }
  }
  if (family.min_degree > family.max_degree ||
      family.min_spectral_radius > family.max_spectral_radius) {
    std::cerr << "degree and spectral-radius ranges need min <= max\n";
    print_usage(argv[0]);
    return 2;
  }
  if (threads > 0) set_parallel_threads(static_cast<std::size_t>(threads));

  family.rl_episodes = episodes;
  const std::vector<GeneratedSystem> systems = generate_family(family, count);

  PipelineConfig base;
  base.seed = family.seed;
  base.fast_mode = fast;
  base.store = store;
  base.obs.ledger_path = ledger_path;

  IndependentCheckConfig check_cfg;
  if (fast) {
    check_cfg.mc_samples = 1500;
    check_cfg.grid_budget = 1024;
  }

  std::cout << "fuzz campaign: seed " << family.seed << ", " << count
            << " systems, dims {";
  for (std::size_t i = 0; i < family.state_dims.size(); ++i)
    std::cout << (i ? "," : "") << family.state_dims[i];
  std::cout << "}, degree " << family.min_degree << ".." << family.max_degree
            << ", spectral radius [" << family.min_spectral_radius << ", "
            << family.max_spectral_radius << "]\n";

  Stopwatch campaign_clock;
  // One shared deadline for the whole campaign: every in-flight job polls
  // it at stage and solver-iteration boundaries, so --max-seconds bounds
  // the campaign instead of merely gating new launches.
  JobControl campaign_control;
  if (max_seconds > 0.0) campaign_control.set_deadline_after(max_seconds);
  std::vector<FuzzOutcome> outcomes(count);
  std::mutex io_mutex;
  // One chunk per system, as bench_table2 and perfbench shard; each run
  // derives all randomness from base.seed + the system's own content, so
  // the campaign is reproducible at any thread count.
  parallel_for(count, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const GeneratedSystem& gs = systems[i];
      FuzzOutcome& o = outcomes[i];
      o.desc = gs.descriptor;
      o.benchmark = gs.benchmark.name;
      if (max_seconds > 0.0 && campaign_clock.seconds() > max_seconds)
        continue;  // time budget: skip, never fail
      o.ran = true;
      // Same job unit synthesize_cli and perfbench run.
      const SynthesisJob job(gs.benchmark, base);
      JobContext ctx;
      ctx.control = (max_seconds > 0.0) ? &campaign_control : nullptr;
      ctx.source = "fuzz_cli";
      const SynthesisResult r = job.run(ctx);
      o.verdict = r.verdict;
      o.failure_stage = r.failure_stage;
      o.total_seconds = r.total_seconds;
      if (r.barrier.success) {
        const IndependentCheckReport chk =
            independent_check(gs.benchmark.ccds, r.controller, r.barrier,
                              base.barrier.rho, check_cfg);
        o.checked = true;
        o.accepted = chk.accepted;
        o.check_detail = chk.detail;
        o.violation = (r.verdict == "VERIFIED") && !chk.accepted;
      }
      if (verbose || o.violation) {
        std::lock_guard<std::mutex> lock(io_mutex);
        std::cout << (o.violation ? "SOUNDNESS VIOLATION " : "") << o.benchmark
                  << ": " << o.verdict << " (n=" << o.desc.num_states
                  << ", d=" << o.desc.degree
                  << ", rho=" << o.desc.spectral_radius << ", "
                  << o.total_seconds << "s)"
                  << (o.checked
                          ? (o.accepted ? ", checker ACCEPTED"
                                        : ", checker REJECTED")
                          : "")
                  << "\n";
        if (o.violation) std::cout << "  " << o.check_detail << "\n";
      }
    }
  });

  // ---- Aggregate.
  int ran = 0, skipped = 0, verified = 0, checked = 0, accepted = 0;
  std::vector<FuzzOutcome> violations;
  std::vector<Bucket> by_n, by_degree, by_radius;
  for (const FuzzOutcome& o : outcomes) {
    if (!o.ran) {
      ++skipped;
      continue;
    }
    ++ran;
    if (o.verdict == "VERIFIED") ++verified;
    if (o.checked) {
      ++checked;
      if (o.accepted) ++accepted;
    }
    if (o.violation) violations.push_back(o);
    bucket_add(by_n, "n=" + std::to_string(o.desc.num_states), o);
    bucket_add(by_degree, "d=" + std::to_string(o.desc.degree), o);
    bucket_add(by_radius,
               radius_bucket(o.desc.spectral_radius,
                             family.min_spectral_radius,
                             family.max_spectral_radius),
               o);
  }
  const auto by_label = [](const Bucket& a, const Bucket& b) {
    return a.label < b.label;
  };
  std::sort(by_n.begin(), by_n.end(), by_label);
  std::sort(by_degree.begin(), by_degree.end(), by_label);
  std::sort(by_radius.begin(), by_radius.end(), by_label);

  JsonWriter w;
  w.begin_object();
  w.key("campaign").begin_object();
  w.key("seed").value(family.seed);
  w.key("count").value(static_cast<std::int64_t>(count));
  w.key("ran").value(ran);
  w.key("skipped").value(skipped);
  w.key("fast").value(fast);
  w.key("verified").value(verified);
  w.key("unverified").value(ran - verified);
  w.key("verified_rate")
      .value(ran > 0 ? static_cast<double>(verified) / ran : 0.0);
  w.key("checked").value(checked);
  w.key("checker_accepted").value(accepted);
  w.key("checker_rejected").value(checked - accepted);
  w.key("soundness_violations")
      .value(static_cast<std::int64_t>(violations.size()));
  w.key("total_seconds").value(campaign_clock.seconds());
  w.end_object();
  write_buckets(w, "by_n", by_n);
  write_buckets(w, "by_degree", by_degree);
  write_buckets(w, "by_radius", by_radius);
  w.key("violations").begin_array();
  for (const FuzzOutcome& o : violations) {
    w.begin_object();
    w.key("benchmark").value(o.benchmark);
    w.key("n").value(static_cast<std::int64_t>(o.desc.num_states));
    w.key("degree").value(o.desc.degree);
    w.key("spectral_radius").value(o.desc.spectral_radius);
    w.key("detail").value(o.check_detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string summary = w.str();

  if (!summary_path.empty()) {
    std::ofstream(summary_path) << summary << "\n";
    std::cout << "summary written to " << summary_path << "\n";
  }
  if (!ledger_path.empty()) {
    ledger_append_bench("fuzz_campaign", summary, ledger_path);
    std::cout << "campaign summary appended to " << ledger_path << "\n";
  }

  std::cout << "ran " << ran << "/" << count << " systems ("
            << skipped << " skipped by time budget) in "
            << campaign_clock.seconds() << "s: " << verified << " VERIFIED, "
            << ran - verified << " UNVERIFIED; checker ran on " << checked
            << " certificates, accepted " << accepted << ", "
            << violations.size() << " soundness violation(s)\n";
  for (const Bucket& b : by_n)
    std::cout << "  " << b.label << ": " << b.verified << "/" << b.runs
              << " verified\n";
  if (!violations.empty()) {
    std::cerr << "FUZZ CAMPAIGN FAILED: " << violations.size()
              << " VERIFIED verdict(s) rejected by the independent checker\n";
    return 1;
  }
  return 0;
}
