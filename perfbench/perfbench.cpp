// End-to-end and per-layer benchmark of the synthesis pipeline.
//
//   perfbench --workload <c1-cold|campaign> [--seed <n>] [--seconds <s>]
//             [--trace 0|1] [--work-dir <dir>] [--trace-out <file>]
//             [--git-head <rev>]
//
// Every job goes through the public job API (SynthesisJob::run with a
// JobContext) on a pool of width min(4, nproc). A run builds its fixtures
// (timed as setup_s; see GapSampler), then repeats the workload's round -- one C1 job, or
// one campaign batch followed by an untimed warm re-answer pass -- until
// --seconds would be exceeded, always at least kMinRounds times. --trace 0
// prints the end-to-end metrics of an untraced phase; --trace 1 runs an
// untraced phase and then a traced one of kMinRounds rounds (metrics
// registry and spans on) and prints the per-layer metrics.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; a line before it holds the machine stanza. Exit code 1 when an
// output check failed, 2 on bad usage. See README.md for the metric map.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "barrier/independent_check.hpp"
#include "core/job.hpp"
#include "math/simd.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "systems/family_gen.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scs;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ---- Workload definitions.

/// Pipeline seed of the C1 reference job and seed of the CI fuzz family.
constexpr std::uint64_t kReferenceSeed = 2024;
constexpr std::size_t kCampaignSystems = 32;
constexpr int kCampaignEpisodes = 10;
/// Rounds a phase runs whatever --seconds says. On a shared 4-vCPU VM the
/// host alternates between fast and slow spells of about 15 s, so a single
/// 15-20 s C1 job measured whichever spell it fell in; two jobs sample two.
/// With one campaign batch, job_tail_s (ten of 32 jobs beyond it) spread
/// 20% across runs from pool scheduling alone.
constexpr std::size_t kMinRounds = 2;
/// Fixture builds and probe kernels are timed in kSetupBatches batches of
/// kSetupBatchSeconds (see per_cpu_seconds).
constexpr int kSetupBatches = 11;
constexpr double kSetupBatchSeconds = 0.02;
/// Probe kernel times of the reference host, a 4-vCPU Intel Xeon VM
/// (2.1 GHz, AVX2) in a calm spell: medians over ten runs.
constexpr double kRefDenseSeconds = 1.96e-5;
constexpr double kRefAllocSeconds = 1.38e-5;
/// How much of the probes' slowdown the workloads feel, as an exponent.
/// Between two sets of ten runs on that host, the probes slowed 1.67x
/// while campaign batches slowed 1.31x (exponent 0.52) and C1 jobs 1.12x
/// (0.66 against a 1.18x probe slowdown): pinned single-thread kernels
/// feel contention more than jobs the scheduler may move between CPUs.
constexpr double kHostSensitivity = 0.5;

// Output of the fast-mode C1 job (synthesize_cli --fast --no-cache C1),
// pinned from the library as first benchmarked. A change that moves these
// changed the pipeline's answer, not just its speed.
constexpr const char* kC1Verdict = "UNVERIFIED";
constexpr const char* kC1FailureStage = "barrier";
constexpr std::uint64_t kC1ControllerDigest = 0x7ef04480595a885dULL;

struct Options {
  std::string workload;
  std::uint64_t seed = 2024;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  std::string git_head = "unknown";
};

/// Pool width of every workload: min(4, nproc).
std::size_t bench_width() {
  return std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sorts `v`; no copy, so it allocates nothing.
double median(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string controller_string(const SynthesisResult& r) {
  std::string s;
  for (const Polynomial& p : r.controller) s += p.to_string(17) + ";";
  return s;
}

std::uint64_t digest_of(const std::string& s) {
  Fnv1a h;
  hash_append(h, s);
  return h.digest();
}

/// Everything a caller reads from a result, at full precision. Two results
/// with equal digests gave the caller the same answer.
std::uint64_t answer_digest(const SynthesisResult& r) {
  Fnv1a h;
  hash_append(h, r.verdict);
  hash_append(h, r.failure_stage);
  hash_append(h, r.failure_message);
  hash_append(h, controller_string(r));
  hash_append(h, r.barrier.barrier.to_string(17));
  hash_append(h, r.barrier.lambda.to_string(17));
  hash_append(h, r.pac.model.error);
  hash_append(h, r.pac.model.degree);
  hash_append(h, r.validation.passed);
  return h.digest();
}

// ---- Per-job record: what the metrics need, copied out of the result.

struct JobSample {
  double latency_s = 0.0;  // caller-observed SynthesisJob::run time
  double total_s = 0.0, rl_s = 0.0, pac_s = 0.0, barrier_s = 0.0,
         validation_s = 0.0;
  bool verified = false;
  bool reached_pac = false, reached_barrier = false, barrier_found = false;
  double pac_error = 0.0;
  int trained_episodes = 0;  // 0 when the RL stage came from the store
  int pac_attempts = 0;      // counted only when PAC ran cold
  double pac_top_degree_s = 0.0;
  int barrier_attempts = 0;  // counted only when the barrier ran cold
  double store_load_s = 0.0, store_store_s = 0.0;
  int store_hits = 0, store_misses = 0;
  bool check_rejected = false;
  double check_s = 0.0;
  std::string failure;  // non-empty: this job counts toward `failed`
};

int episode_budget(const Benchmark& b, const PipelineConfig& c) {
  const int episodes = c.rl_episodes >= 0 ? c.rl_episodes : b.rl.episodes;
  return c.fast_mode ? std::min(episodes, 20) : episodes;
}

JobSample sample_of(const SynthesisJob& job, const SynthesisResult& r,
                    double latency_s) {
  JobSample s;
  s.latency_s = latency_s;
  s.total_s = r.total_seconds;
  s.rl_s = r.rl_seconds;
  s.pac_s = r.pac_seconds;
  s.barrier_s = r.barrier_seconds;
  s.validation_s = r.validation_seconds;
  s.verified = r.verdict == "VERIFIED";
  const std::string& stage = r.failure_stage;
  s.reached_pac = stage != "rl" && stage != "exception";
  s.reached_barrier = s.reached_pac && stage != "pac";
  s.barrier_found = r.barrier.success;
  if (s.reached_pac) s.pac_error = r.pac.model.error;
  if (r.cache.rl.hits == 0) s.trained_episodes = episode_budget(
      job.benchmark(), job.config());
  if (s.reached_pac && r.cache.pac.hits == 0) {
    int top = 0;
    for (const PacTraceRow& row : r.pac.trace) top = std::max(top, row.degree);
    for (const PacTraceRow& row : r.pac.trace) {
      ++s.pac_attempts;
      if (row.degree == top) s.pac_top_degree_s += row.seconds;
    }
  }
  if (s.reached_barrier && r.cache.barrier.hits == 0)
    s.barrier_attempts = r.barrier.attempts;
  for (const StageCounters* c : {&r.cache.rl, &r.cache.pac, &r.cache.barrier,
                                 &r.cache.validation}) {
    s.store_load_s += c->load_seconds;
    s.store_store_s += c->store_seconds;
    s.store_hits += c->hits;
    s.store_misses += c->misses;
  }
  if (r.verdict == "CANCELLED" || r.verdict == "DEADLINE")
    s.failure = r.benchmark + ": verdict " + r.verdict;
  else if (r.failure_stage == "exception")
    s.failure = r.benchmark + ": stage threw: " + r.failure_message;
  return s;
}

/// Run one job under the benchmark's own span; never throws.
JobSample run_job(const SynthesisJob& job, const JobContext& ctx,
                  SynthesisResult* out = nullptr) {
  TraceSpan span("perfbench.job");
  const Clock::time_point t0 = Clock::now();
  try {
    SynthesisResult r = job.run(ctx);
    JobSample s = sample_of(job, r, since(t0));
    if (out != nullptr) *out = std::move(r);
    return s;
  } catch (const std::exception& e) {
    JobSample s;
    s.latency_s = since(t0);
    s.failure = job.benchmark().name + ": job threw: " + e.what();
    return s;
  }
}

// ---- Workloads. Each builds its fixtures in build() and exposes one
// round; run_phase() below times and repeats rounds.

struct Round {
  double wall_s = 0.0;
  std::vector<JobSample> jobs;
  /// Untimed answers re-read from the store; they count toward attempted,
  /// failed and the store.* layer totals only.
  std::vector<JobSample> warm;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the fixtures. Timed as setup_s, and run again between rounds,
  /// so every call must leave the same fixtures.
  virtual void build() = 0;
  virtual Round round() = 0;
  /// Per-layer extras a workload measures beyond its rounds (c1-cold's
  /// width-1 reference); returns the jobs it ran.
  virtual std::vector<JobSample> extra_per_layer(std::map<std::string, double>&,
                                                 double) {
    return {};
  }
};

fs::path fresh_dir(const Options& opt, const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(opt.work_dir) /
                       (tag + "-" + std::to_string(::getpid()) + "-" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

FamilyConfig family_config() {
  FamilyConfig family;
  family.seed = kReferenceSeed;
  family.state_dims = {2, 3};
  family.rl_episodes = kCampaignEpisodes;
  return family;
}

PipelineConfig family_pipeline(const fs::path& store) {
  PipelineConfig config;
  config.seed = kReferenceSeed;
  config.fast_mode = true;
  config.store.mode = StoreConfig::Mode::kOn;
  config.store.cache_dir = store.string();
  return config;
}

/// One cold full-pipeline job on C1, fast budgets, 50k sample cap.
class C1Cold : public Workload {
 public:
  void build() override {
    PipelineConfig config;
    config.seed = kReferenceSeed;
    config.fast_mode = true;
    config.pac_fit.max_samples = 50000;
    config.store.mode = StoreConfig::Mode::kOff;
    job_.emplace(make_benchmark(BenchmarkId::kC1), config);
  }

  Round round() override {
    Round round;
    SynthesisResult r;
    const Clock::time_point t0 = Clock::now();
    round.jobs.push_back(run_job(*job_, context(), &r));
    round.wall_s = since(t0);
    check(r, round.jobs.back());
    last_digest_ = answer_digest(r);
    return round;
  }

  /// Width-1 reference: pool.speedup and the width-independence check.
  std::vector<JobSample> extra_per_layer(std::map<std::string, double>& m,
                                         double untraced_wall_s) override {
    const std::uint64_t wide_digest = last_digest_;
    set_parallel_threads(1);
    SynthesisResult r;
    const Clock::time_point t0 = Clock::now();
    JobSample s = run_job(*job_, context(), &r);
    const double serial_wall_s = since(t0);
    set_parallel_threads(bench_width());
    check(r, s);
    if (s.failure.empty() && answer_digest(r) != wide_digest)
      s.failure = "C1 answer at width 1 differs from width " +
                  std::to_string(bench_width());
    m["pool.speedup"] = serial_wall_s / untraced_wall_s;
    return {s};
  }

 private:
  JobContext context() const {
    JobContext ctx;
    ctx.source = "perfbench";
    return ctx;
  }

  void check(const SynthesisResult& r, JobSample& s) const {
    if (!s.failure.empty()) return;
    const std::uint64_t digest = digest_of(controller_string(r));
    if (r.verdict != kC1Verdict || r.failure_stage != kC1FailureStage ||
        digest != kC1ControllerDigest) {
      std::ostringstream os;
      os << "C1 output moved: verdict " << r.verdict << ", stage '"
         << r.failure_stage << "', controller digest 0x" << std::hex << digest
         << " (pinned " << kC1Verdict << ", '" << kC1FailureStage << "', 0x"
         << kC1ControllerDigest << "); controller " << controller_string(r);
      s.failure = os.str();
    }
  }

  std::optional<SynthesisJob> job_;
  std::uint64_t last_digest_ = 0;
};

/// The CI fuzz family as one batch, one pool task per system, artifacts
/// written to a fresh store, every found certificate re-checked. After the
/// clock stops, every job is answered again from that store through one
/// shared StageCache handle, the way the server holds one.
class Campaign : public Workload {
 public:
  explicit Campaign(const Options& opt) : opt_(opt), order_rng_(opt.seed) {
    check_cfg_.mc_samples = 1500;  // fuzz_cli --fast
    check_cfg_.grid_budget = 1024;
  }

  /// The store is not a fixture: every round creates its own.
  void build() override {
    systems_ = generate_family(family_config(), kCampaignSystems);
    // Largest state dimension first: the slow jobs start early and short
    // ones fill the tail, so the batch's wall time tracks its total work
    // instead of where the slowest system happens to sit in the family.
    std::stable_sort(systems_.begin(), systems_.end(),
                     [](const GeneratedSystem& a, const GeneratedSystem& b) {
                       return a.descriptor.num_states >
                              b.descriptor.num_states;
                     });
  }

  Round round() override {
    Round round;
    round.jobs.resize(systems_.size());
    std::vector<std::uint64_t> cold_digests(systems_.size());
    // Every round writes into a store of its own so each batch is cold.
    const fs::path store = fresh_dir(opt_, "campaign-store");
    const PipelineConfig config = family_pipeline(store);
    const Clock::time_point t0 = Clock::now();
    parallel_for(systems_.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const Benchmark& bench = systems_[i].benchmark;
        const SynthesisJob job(bench, config);
        JobContext ctx;
        ctx.source = "perfbench";
        SynthesisResult r;
        JobSample s = run_job(job, ctx, &r);
        if (r.barrier.success) {
          TraceSpan span("perfbench.independent_check");
          const Clock::time_point c0 = Clock::now();
          const IndependentCheckReport chk =
              independent_check(bench.ccds, r.controller, r.barrier,
                                config.barrier.rho, check_cfg_);
          s.check_s = since(c0);
          s.check_rejected = !chk.accepted;
          if (s.verified && !chk.accepted && s.failure.empty())
            s.failure = bench.name + ": VERIFIED but rejected by the "
                        "independent checker: " + chk.detail;
        }
        cold_digests[i] = answer_digest(r);
        round.jobs[i] = std::move(s);
      }
    });
    round.wall_s = since(t0);
    round.warm = warm_pass(config, cold_digests);
    fs::remove_all(store);
    return round;
  }

 private:
  /// Re-answer every system from the round's store, one at a time in a
  /// seed-shuffled order. Each answer must load every stage it reaches
  /// (no miss, so no solver work) and equal the cold result bit for bit.
  std::vector<JobSample> warm_pass(const PipelineConfig& config,
                                   const std::vector<std::uint64_t>& cold) {
    std::vector<std::size_t> order(systems_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), order_rng_.engine());
    StageCache cache(config.store);
    std::vector<JobSample> warm;
    for (const std::size_t i : order) {
      const SynthesisJob job(systems_[i].benchmark, config);
      JobContext ctx;
      ctx.cache = &cache;
      ctx.source = "perfbench";
      SynthesisResult r;
      JobSample s = run_job(job, ctx, &r);
      if (s.failure.empty() && s.store_misses > 0)
        s.failure = job.benchmark().name + ": warm answer missed the store " +
                    std::to_string(s.store_misses) + " times";
      else if (s.failure.empty() && answer_digest(r) != cold[i])
        s.failure = job.benchmark().name +
                    ": warm answer differs from the cold result";
      warm.push_back(std::move(s));
    }
    return warm;
  }

  Options opt_;
  Rng order_rng_;
  std::vector<GeneratedSystem> systems_;
  IndependentCheckConfig check_cfg_;
};

// ---- Phases and metrics.

/// Running aggregates of a phase's rounds.
struct Phase {
  std::vector<double> round_wall_s;
  std::vector<double> latency_s;
  double total_wall_s = 0.0;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  // grows only when a check fails
  std::size_t unverified = 0, pac_jobs = 0;
  double pac_error_sum = 0.0;
  double episodes = 0.0, reached_barrier = 0.0, found = 0.0;
  std::map<std::string, double> layer;  // per-layer totals over the jobs

  /// Count one job toward `attempted` and, if a check failed, `failed`.
  void account(const JobSample& s) {
    ++attempted;
    if (s.failure.empty()) return;
    ++failed;
    failures.push_back(s.failure);
  }

  void add(const Round& r) {
    round_wall_s.push_back(r.wall_s);
    total_wall_s += r.wall_s;
    const auto sum = [this](const char* name, double v) { layer[name] += v; };
    for (const JobSample& s : r.jobs) {
      account(s);
      latency_s.push_back(s.latency_s);
      if (!s.verified) ++unverified;
      if (s.reached_pac) {
        pac_error_sum += s.pac_error;
        ++pac_jobs;
      }
      episodes += s.trained_episodes;
      if (s.reached_barrier) {
        reached_barrier += 1.0;
        if (s.barrier_found) found += 1.0;
      }
      sum("core.job_s", s.latency_s);
      sum("core.unattributed_s",
          s.total_s - s.rl_s - s.pac_s - s.barrier_s - s.validation_s);
      sum("rl.s", s.rl_s);
      sum("pac.s", s.pac_s);
      sum("pac.attempts", s.pac_attempts);
      sum("pac.top_degree_s", s.pac_top_degree_s);
      sum("barrier.s", s.barrier_s);
      sum("barrier.attempts", s.barrier_attempts);
      sum("validation.s", s.validation_s);
      sum("checker.s", s.check_s);
      sum("checker.rejected", s.check_rejected ? 1.0 : 0.0);
      sum("store.load_s", s.store_load_s);
      sum("store.store_s", s.store_store_s);
      sum("store.hits", s.store_hits);
      sum("store.misses", s.store_misses);
    }
    for (const JobSample& s : r.warm) {
      account(s);
      sum("store.load_s", s.store_load_s);
      sum("store.hits", s.store_hits);
      sum("store.misses", s.store_misses);
    }
  }
};

// ---- Host speed probe.
//
// The host is a shared VM whose speed moves by 20-30% over minutes as its
// neighbours come and go. Within ten consecutive runs, c1-cold's wall time
// rose 25% with no change to the code; the fixture builds and the kernels
// below slowed with it. So the benchmark times two reference kernels of
// its own, which no change to the library can move, next to the fixture
// builds, and divides every end-to-end timing by the host slowdown they
// show (GapSampler::host_slowdown). The raw times and the factor go to the
// machine stanza.

/// Dense linear algebra, like the SDP and LP steps: Cholesky-factor a fixed
/// well-conditioned 48x48 matrix and solve with it.
double probe_dense() {
  constexpr int n = 48;
  static thread_local std::vector<double> a(n * n), b(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j)
      a[i * n + j] = 1.0 / (1.0 + std::abs(i - j)) + (i == j ? n : 0.0);
    b[i] = 1.0 + i;
  }
  for (int k = 0; k < n; ++k) {
    const double d = std::sqrt(a[k * n + k]);
    for (int i = k; i < n; ++i) a[i * n + k] /= d;
    for (int j = k + 1; j < n; ++j)
      for (int i = j; i < n; ++i) a[i * n + j] -= a[i * n + k] * a[j * n + k];
  }
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < i; ++k) b[i] -= a[i * n + k] * b[k];
    b[i] /= a[i * n + i];
  }
  return b[n - 1];
}

/// Allocation churn, like building polynomials and stage records: short-
/// lived vectors and strings of varied sizes in a map.
double probe_alloc() {
  std::map<std::string, std::vector<double>> m;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> v(8 + (i * 37) % 120, 0.5 * i);
    m.emplace("term-" + std::to_string(i * 7919), std::move(v));
  }
  double s = 0.0;
  for (const auto& [key, v] : m)
    s += v.back() + static_cast<double>(key.size());
  return s;
}

/// Mean seconds per call of `fn`: the median of kSetupBatches batch means.
/// A batch runs `fn` on every allowed CPU in turn, pinned, for an equal
/// share of kSetupBatchSeconds, and averages over the CPUs. On a shared
/// host each CPU runs at its own speed (7.4 to 12.6 us for a C1 build on a
/// 4-vCPU VM), and a sample taken wherever the thread landed measured the
/// CPU, not the code.
template <class Fn>
double per_cpu_seconds(Fn&& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool pinned = ::pthread_getaffinity_np(
                          ::pthread_self(), sizeof(allowed), &allowed) == 0;
  std::vector<int> cpus;  // -1: run unpinned
  for (int c = 0; pinned && c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);
  const double share_s = kSetupBatchSeconds / static_cast<double>(cpus.size());
  std::vector<double> means;
  for (int i = 0; i < kSetupBatches; ++i) {
    double sum = 0.0;
    for (const int cpu : cpus) {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
      }
      int n = 0;
      const Clock::time_point t0 = Clock::now();
      do {
        fn();
        ++n;
      } while (since(t0) < share_s);
      sum += since(t0) / n;
    }
    means.push_back(sum / static_cast<double>(cpus.size()));
  }
  if (pinned)
    ::pthread_setaffinity_np(::pthread_self(), sizeof(allowed), &allowed);
  return median(means);
}

double mean_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Times the fixture build and the probe kernels before every round and
/// after the last, at pool width 1.
/// - Code on a shared host runs through fast and slow spells of minutes
///   (an allocation loop's speed moved 80% between runs), so each timing is
///   the mean of its samples over the run.
/// - generate_family fans its 32 small systems out over the pool. At width
///   4 that build was mostly waking idle workers, and a batch took 0.5 to
///   4.5 ms per build on a 4-vCPU VM. At width 1 it runs inline: the work
///   it measures is the fixtures, not the wake-ups.
class GapSampler {
 public:
  /// Leaves `w`'s fixtures built and the pool started again at
  /// bench_width().
  void sample(Workload& w) {
    TraceSpan span("perfbench.setup");
    set_parallel_threads(1);
    setup_.push_back(per_cpu_seconds([&w] { w.build(); }));
    volatile double sink = 0.0;
    dense_.push_back(per_cpu_seconds([&sink] { sink = sink + probe_dense(); }));
    alloc_.push_back(per_cpu_seconds([&sink] { sink = sink + probe_alloc(); }));
    // Started here, after the affinity is restored, so the workers may run
    // on every allowed CPU and their start stays out of the timed rounds.
    set_parallel_threads(bench_width());
    parallel_threads();
  }

  /// Fixture build time as measured, not scaled.
  double setup_seconds() const { return mean_of(setup_); }
  double dense_seconds() const { return mean_of(dense_); }
  double alloc_seconds() const { return mean_of(alloc_); }
  /// The geometric mean of the probe kernels' times over the reference
  /// host's, raised to kHostSensitivity.
  double host_slowdown() const {
    return std::pow(dense_seconds() / kRefDenseSeconds * alloc_seconds() /
                        kRefAllocSeconds,
                    0.5 * kHostSensitivity);
  }

 private:
  std::vector<double> setup_, dense_, alloc_;
};

/// Repeat rounds until the next one would end past `seconds`, but at least
/// kMinRounds times. With a `setup` timer, sample it before every round and
/// after the last.
void run_phase(Workload& w, double seconds, Phase& phase,
               GapSampler* setup = nullptr) {
  const Clock::time_point t0 = Clock::now();
  do {
    if (setup != nullptr) setup->sample(w);
    TraceSpan span("perfbench.round");
    phase.add(w.round());
  } while (phase.round_wall_s.size() < kMinRounds ||
           since(t0) + phase.total_wall_s /
                           static_cast<double>(phase.round_wall_s.size()) <=
               seconds);
  if (setup != nullptr) setup->sample(w);
}

/// Per-job latency at the highest percentile that has at least ten jobs
/// beyond it; the maximum when there are fewer than eleven.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};

/// `v` must be sorted.
Tail tail_latency(const std::vector<double>& v) {
  constexpr std::size_t kBeyond = 10;
  Tail t;
  if (v.empty()) return t;
  t.value = v.back();
  if (v.size() <= kBeyond) return t;
  const std::size_t n = v.size();
  const std::size_t rank = n - kBeyond;
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = n - rank;
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Timings are divided by `slowdown`, the host's speed factor.
std::map<std::string, double> end_to_end(Phase& phase, double setup_s,
                                         double wall_s, double rss_mb,
                                         double slowdown, Tail& tail) {
  const double p50 = median(phase.latency_s);  // sorts the latencies
  tail = tail_latency(phase.latency_s);
  const double rounds = static_cast<double>(phase.round_wall_s.size());
  return {
      {"setup_s", setup_s / slowdown},
      {"wall_s", wall_s / slowdown},
      {"job_p50_s", p50 / slowdown},
      {"job_tail_s", tail.value / slowdown},
      {"unverified", static_cast<double>(phase.unverified) / rounds},
      {"pac_error", phase.pac_jobs > 0
                        ? phase.pac_error_sum /
                              static_cast<double>(phase.pac_jobs)
                        : 0.0},
      {"peak_rss_mb", rss_mb},
  };
}

double counter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return static_cast<double>(c.value);
  return 0.0;
}

std::map<std::string, double> per_layer(Phase& traced,
                                        double untraced_wall_s) {
  std::map<std::string, double> m = traced.layer;
  m["trace.overhead_s"] = median(traced.round_wall_s) - untraced_wall_s;
  m["rl.s_per_episode"] =
      traced.episodes > 0 ? m["rl.s"] / traced.episodes : 0.0;
  m["barrier.found_ratio"] =
      traced.reached_barrier > 0 ? traced.found / traced.reached_barrier
                                 : 0.0;

  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  for (const char* name :
       {"pac.samples_drawn", "pac.degraded_fits", "simplex.pivots",
        "simplex.bland_restarts", "sdp.solves", "sdp.iterations",
        "sdp.stalls", "sdp.restarts", "pool.steals", "pool.tasks_submitted"})
    m[name] = counter(snap, name);
  m["sos.gram_dim"] = counter(snap, "sos.prune.gram_dim");

  double sdp_ns = 0.0;
  for (const TraceEvent& e : trace_snapshot())
    if (e.phase == 'X' && e.name == "sdp.solve") sdp_ns += e.dur_ns;
  m["sdp.s"] = sdp_ns * 1e-9;
  m["sdp.ms_per_iteration"] =
      m["sdp.iterations"] > 0 ? m["sdp.s"] * 1e3 / m["sdp.iterations"] : 0.0;
  m["pool.utilization"] =
      m["core.job_s"] /
      (traced.total_wall_s * static_cast<double>(bench_width()));
  m["pool.speedup"] = 0.0;  // set by c1-cold's width-1 reference only
  return m;
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    if (arg == "--workload") opt.workload = val;
    else if (arg == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (arg == "--trace") opt.trace = val == "1";
    else if (arg == "--work-dir") opt.work_dir = val;
    else if (arg == "--trace-out") opt.trace_out = val;
    else if (arg == "--git-head") opt.git_head = val;
    else return false;
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "c1-cold") return std::make_unique<C1Cold>();
  if (opt.workload == "campaign") return std::make_unique<Campaign>(opt);
  return nullptr;
}

/// Units follow the metric names: *_s / *.s seconds, *ms_per_* milliseconds.
std::string unit_of(const std::string& name) {
  const auto ends_with = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (name == "peak_rss_mb") return "MB";
  if (ends_with("ms_per_iteration")) return "ms";
  if (ends_with("_s") || ends_with(".s") || ends_with("s_per_episode"))
    return "s";
  if (name == "pac_error" || ends_with("_ratio") ||
      ends_with(".utilization") || ends_with(".speedup"))
    return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <c1-cold|campaign> "
                 "[--seed n] [--seconds s] [--trace 0|1]\n"
                 "       [--work-dir dir] [--trace-out file] "
                 "[--git-head rev]\n";
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt);
  if (!workload) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  set_metrics_enabled(false);
  // Start the pool before anything is timed: its start is thread creation,
  // whose cost wanders by tens of percent between runs on a shared host.
  set_parallel_threads(bench_width());
  parallel_threads();

  GapSampler setup;
  Phase untraced;
  run_phase(*workload, opt.seconds, untraced, &setup);
  const double setup_s = setup.setup_seconds();
  const double rss_mb = peak_rss_mb();
  const double untraced_wall_s = median(untraced.round_wall_s);

  std::map<std::string, double> metrics;
  Tail tail;
  std::optional<Phase> traced;
  if (!opt.trace) {
    metrics = end_to_end(untraced, setup_s, untraced_wall_s, rss_mb,
                         setup.host_slowdown(), tail);
  } else {
    MetricsRegistry::instance().reset_for_tests();
    set_metrics_enabled(true);
    trace_clear();
    trace_start(opt.trace_out.empty() ? "perfbench_trace.json"
                                      : opt.trace_out);
    traced.emplace();
    run_phase(*workload, 0.0, *traced);
    set_metrics_enabled(false);
    trace_stop();
    metrics = per_layer(*traced, untraced_wall_s);
    if (!opt.trace_out.empty()) trace_write(opt.trace_out);
    for (const JobSample& s :
         workload->extra_per_layer(metrics, untraced_wall_s))
      traced->account(s);
  }

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const Phase* p : {&untraced, traced ? &*traced : nullptr}) {
    if (p == nullptr) continue;
    attempted += p->attempted;
    failed += p->failed;
    failures.insert(failures.end(), p->failures.begin(), p->failures.end());
  }
  for (const std::string& f : failures)
    std::cerr << "CHECK FAILED: " << f << "\n";
  const bool correct = failures.empty();

  const Phase& reported = traced ? *traced : untraced;
  JsonWriter machine;
  machine.begin_object().key("machine").begin_object();
  machine.key("nproc").value(static_cast<std::uint64_t>(
      std::max(1u, std::thread::hardware_concurrency())));
  machine.key("pool_width").value(static_cast<std::uint64_t>(
      parallel_threads()));
  machine.key("simd_kernel").value(simd::active_kernel_name());
  machine.key("build_type").value(PERFBENCH_BUILD_TYPE);
  machine.key("git_head").value(opt.git_head);
  machine.end_object();
  machine.key("workload").value(opt.workload);
  machine.key("seed").value(opt.seed);
  machine.key("rounds").value(static_cast<std::uint64_t>(
      reported.round_wall_s.size()));
  machine.key("jobs").value(static_cast<std::uint64_t>(
      reported.latency_s.size()));
  machine.key("probe_dense_s").value(setup.dense_seconds());
  machine.key("probe_alloc_s").value(setup.alloc_seconds());
  machine.key("host_slowdown").value(setup.host_slowdown());
  machine.key("setup_raw_s").value(setup_s);
  machine.key("wall_raw_s").value(untraced_wall_s);
  if (!opt.trace) {
    machine.key("job_tail_percentile").value(tail.percentile);
    machine.key("job_tail_beyond").value(static_cast<std::uint64_t>(
        tail.beyond));
  }
  machine.end_object();
  std::cout << machine.str() << "\n";

  JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::uint64_t>(attempted));
  w.key("failed").value(static_cast<std::uint64_t>(
      correct ? 0 : std::max<std::size_t>(failed, 1)));
  w.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(value);
    w.key("unit").value(unit_of(name));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}
