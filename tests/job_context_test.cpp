// Cancellation / deadline semantics of the job layer: JobControl unit
// behavior, cooperative preemption inside the solver iteration loops, and
// the pipeline-level guarantees -- CANCELLED/DEADLINE verdicts in the
// result and ledger, no partial stage artifacts in the store, and bitwise
// neutrality of an armed-but-idle control, plus a rerun answered from the
// store through a borrowed StageCache handle.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "core/pipeline.hpp"
#include "obs/ledger.hpp"
#include "opt/minimax_fit.hpp"
#include "opt/sdp.hpp"
#include "opt/simplex.hpp"
#include "store/stage_cache.hpp"
#include "store/store.hpp"
#include "util/cancellation.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace scs {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) : path(fs::temp_directory_path() / tag) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// ---- JobControl unit behavior.

TEST(JobControl, StartsIdle) {
  JobControl c;
  EXPECT_FALSE(c.stop_requested());
  EXPECT_FALSE(c.cancelled());
  EXPECT_FALSE(c.has_deadline());
  EXPECT_EQ(c.stop_reason(), JobControl::StopReason::kNone);
  EXPECT_STREQ(to_string(c.stop_reason()), "");
}

TEST(JobControl, CancelIsSticky) {
  JobControl c;
  c.cancel();
  c.cancel();
  EXPECT_TRUE(c.stop_requested());
  EXPECT_EQ(c.stop_reason(), JobControl::StopReason::kCancelled);
  EXPECT_STREQ(to_string(c.stop_reason()), "CANCELLED");
}

TEST(JobControl, DeadlineExpiresAndClears) {
  JobControl c;
  c.set_deadline_after(3600.0);
  EXPECT_TRUE(c.has_deadline());
  EXPECT_FALSE(c.stop_requested());
  EXPECT_GT(c.seconds_remaining(), 3000.0);

  c.set_deadline_after(0.0);  // non-positive = already expired
  EXPECT_TRUE(c.stop_requested());
  EXPECT_EQ(c.stop_reason(), JobControl::StopReason::kDeadline);
  EXPECT_STREQ(to_string(c.stop_reason()), "DEADLINE");

  c.clear_deadline();
  EXPECT_FALSE(c.has_deadline());
  EXPECT_FALSE(c.stop_requested());
}

TEST(JobControl, CancelWinsOverDeadline) {
  JobControl c;
  c.set_deadline_after(-1.0);
  c.cancel();
  EXPECT_EQ(c.stop_reason(), JobControl::StopReason::kCancelled);
}

TEST(JobControl, NullSafeHelper) {
  EXPECT_FALSE(stop_requested(nullptr));
  JobControl c;
  EXPECT_FALSE(stop_requested(&c));
  c.cancel();
  EXPECT_TRUE(stop_requested(&c));
}

TEST(JobControl, ConcurrentCancelIsVisible) {
  JobControl c;
  std::thread t([&] { c.cancel(); });
  while (!c.stop_requested()) std::this_thread::yield();
  t.join();
  EXPECT_TRUE(c.cancelled());
}

// ---- Child scopes (the portfolio racer's arm controls).

TEST(JobControlChild, ParentCancelPropagatesToChildren) {
  JobControl parent;
  JobControl a(&parent);
  JobControl b(&parent);
  EXPECT_FALSE(a.stop_requested());
  parent.cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_EQ(a.stop_reason(), JobControl::StopReason::kCancelled);
}

TEST(JobControlChild, ChildCancelStaysLocal) {
  JobControl parent;
  JobControl loser(&parent);
  JobControl winner(&parent);
  loser.cancel();
  EXPECT_TRUE(loser.cancelled());
  EXPECT_FALSE(winner.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(JobControlChild, ParentDeadlineSeenThroughChild) {
  JobControl parent;
  JobControl child(&parent);
  EXPECT_FALSE(child.has_deadline());
  parent.set_deadline_after(3600.0);
  EXPECT_TRUE(child.has_deadline());
  EXPECT_FALSE(child.deadline_expired());
  parent.set_deadline_after(0.0);
  EXPECT_TRUE(child.deadline_expired());
  EXPECT_EQ(child.stop_reason(), JobControl::StopReason::kDeadline);
  // The child's own clear cannot disarm the parent's deadline.
  child.clear_deadline();
  EXPECT_TRUE(child.deadline_expired());
}

TEST(JobControlChild, SecondsRemainingIsNearestInChain) {
  JobControl parent;
  JobControl child(&parent);
  EXPECT_EQ(child.seconds_remaining(),
            std::numeric_limits<double>::infinity());
  parent.set_deadline_after(3600.0);
  child.set_deadline_after(7200.0);
  EXPECT_LE(child.seconds_remaining(), 3600.0);
  child.set_deadline_after(1.0);
  EXPECT_LE(child.seconds_remaining(), 1.0);
}

TEST(JobControlChild, GrandchildSeesWholeChain) {
  JobControl root;
  JobControl mid(&root);
  JobControl leaf(&mid);
  EXPECT_FALSE(leaf.stop_requested());
  root.cancel();
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_TRUE(mid.cancelled());
}

// ---- Solver loops honor the control.

TEST(SolverPreemption, SdpReportsCancelled) {
  // min tr(X) s.t. X_00 + X_11 = 2 -- converges in a few iterations, so a
  // pre-cancelled control must win at the first iteration boundary.
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);

  JobControl control;
  control.cancel();
  SdpOptions options;
  options.control = &control;
  EXPECT_EQ(solve_sdp(p, options).status, SdpStatus::kCancelled);
}

TEST(SolverPreemption, SdpDeadlineMapsToTimeLimit) {
  SdpProblem p;
  p.block_dims = {2};
  p.block_obj_weight = {1.0};
  SdpConstraint c;
  c.entries = {{0, 0, 0, 1.0}, {0, 1, 1, 1.0}};
  c.rhs = 2.0;
  p.constraints.push_back(c);

  JobControl control;
  control.set_deadline_after(0.0);
  SdpOptions options;
  options.control = &control;
  EXPECT_EQ(solve_sdp(p, options).status, SdpStatus::kTimeLimit);
}

TEST(SolverPreemption, SimplexReportsCancelled) {
  LpProblem lp;
  lp.a = Mat(3, 5);
  lp.a.set_row(0, Vec{1.0, 0.0, 1.0, 0.0, 0.0});
  lp.a.set_row(1, Vec{0.0, 2.0, 0.0, 1.0, 0.0});
  lp.a.set_row(2, Vec{3.0, 2.0, 0.0, 0.0, 1.0});
  lp.b = Vec{4.0, 12.0, 18.0};
  lp.c = Vec{-3.0, -5.0, 0.0, 0.0, 0.0};

  JobControl control;
  control.cancel();
  LpOptions options;
  options.control = &control;
  EXPECT_EQ(solve_lp(lp, options).status, LpStatus::kCancelled);

  control.clear_deadline();
  LpOptions clean;
  EXPECT_EQ(solve_lp(lp, clean).status, LpStatus::kOptimal);
}

TEST(SolverPreemption, MinimaxFitReportsPreempted) {
  Mat design(8, 2);
  Vec targets(8);
  for (int i = 0; i < 8; ++i) {
    design(i, 0) = 1.0;
    design(i, 1) = static_cast<double>(i);
    targets[i] = 0.5 * i + 1.0;
  }
  JobControl control;
  control.cancel();
  MinimaxOptions options;
  options.control = &control;
  const MinimaxFitResult fit = minimax_fit(design, targets, options);
  EXPECT_FALSE(fit.ok);
  EXPECT_NE(fit.note.find("preempted"), std::string::npos);
}

// ---- Pipeline-level guarantees.

PipelineConfig fast_config() {
  PipelineConfig config;
  config.seed = 1;
  config.fast_mode = true;
  config.rl_episodes = 3;
  return config;
}

TEST(JobContextPipeline, CancelledJobYieldsCancelledVerdictAndCleanStore) {
  TempDir cache("scs_job_ctx_cancel_cache");
  TempDir ledger_dir("scs_job_ctx_cancel_ledger");
  const std::string ledger = (ledger_dir.path / "ledger.jsonl").string();

  PipelineConfig config = fast_config();
  config.store.mode = StoreConfig::Mode::kOn;
  config.store.cache_dir = cache.str();
  config.obs.ledger_path = ledger;

  JobControl control;
  control.cancel();  // cancelled before the first stage gate
  JobContext ctx;
  ctx.control = &control;

  const SynthesisJob job(make_benchmark(BenchmarkId::kC1), config);
  const SynthesisResult result = job.run(ctx);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.verdict, "CANCELLED");
  EXPECT_EQ(result.failure_stage, "rl");
  EXPECT_NE(result.failure_message.find("preempted"), std::string::npos);

  // No partial artifacts: a preempted run must not poison warm restarts.
  ArtifactStore store(cache.str());
  EXPECT_TRUE(store.list().empty());

  // Exactly one ledger record, carrying the CANCELLED verdict.
  const LedgerReadResult read = ledger_read(ledger);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].verdict, "CANCELLED");
  EXPECT_EQ(read.records[0].source, "synthesize");
  EXPECT_EQ(read.records[0].kind, "synthesis");
}

TEST(JobContextPipeline, ExpiredDeadlineYieldsDeadlineVerdict) {
  PipelineConfig config = fast_config();
  JobControl control;
  control.set_deadline_after(0.0);
  JobContext ctx;
  ctx.control = &control;
  const SynthesisJob job(make_benchmark(BenchmarkId::kC1), config);
  const SynthesisResult result = job.run(ctx);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.verdict, "DEADLINE");
  EXPECT_EQ(result.failure_stage, "rl");
}

TEST(JobContextPipeline, MidRunDeadlinePreemptsBeforeCompletion) {
  // A deadline at a third of the job's own undisturbed run time must stop
  // it early at a stage or solver boundary with the DEADLINE verdict. The
  // job is timed first, so the premise holds however fast it gets; the
  // store stays off so the timed run cannot warm the second one.
  PipelineConfig config = fast_config();
  config.store.mode = StoreConfig::Mode::kOff;
  const SynthesisJob job(make_benchmark(BenchmarkId::kC1), config);
  Stopwatch full;
  job.run();
  JobControl control;
  control.set_deadline_after(full.seconds() / 3.0);
  JobContext ctx;
  ctx.control = &control;
  const SynthesisResult result = job.run(ctx);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.verdict, "DEADLINE");
}

TEST(JobContextPipeline, IdleControlIsBitwiseNeutral) {
  // Design constraint: a JobControl is observation-only. The same job with
  // no control and with an armed-but-never-firing deadline must produce
  // bitwise-identical certificates (precision-17 round-trip strings).
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const PipelineConfig config = fast_config();
  const SynthesisJob job(bench, config);

  const SynthesisResult plain = job.run();

  JobControl control;
  control.set_deadline_after(1e6);
  JobContext ctx;
  ctx.control = &control;
  const SynthesisResult guarded = job.run(ctx);

  EXPECT_EQ(plain.verdict, guarded.verdict);
  EXPECT_EQ(plain.success, guarded.success);
  ASSERT_EQ(plain.controller.size(), guarded.controller.size());
  for (std::size_t i = 0; i < plain.controller.size(); ++i)
    EXPECT_EQ(plain.controller[i].to_string(17),
              guarded.controller[i].to_string(17));
  EXPECT_EQ(plain.barrier.barrier.to_string(17),
            guarded.barrier.barrier.to_string(17));
  EXPECT_EQ(plain.total_seconds > 0.0, guarded.total_seconds > 0.0);
}

TEST(JobContextPipeline, ConfigKeyIgnoresControlAndMatchesLedgerIdentity) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const PipelineConfig config = fast_config();
  const SynthesisJob job(bench, config);
  const std::uint64_t key = job.config_key();
  EXPECT_NE(key, 0u);
  // Same benchmark+config -> same key; different seed -> different key.
  EXPECT_EQ(SynthesisJob(bench, config).config_key(), key);
  PipelineConfig other = config;
  other.seed = 2;
  EXPECT_NE(SynthesisJob(bench, other).config_key(), key);

  TempDir ledger_dir("scs_job_ctx_key_ledger");
  const std::string ledger = (ledger_dir.path / "ledger.jsonl").string();
  PipelineConfig with_ledger = config;
  with_ledger.obs.ledger_path = ledger;
  JobControl control;
  control.cancel();
  JobContext ctx;
  ctx.control = &control;
  ctx.source = "job_context_test";
  SynthesisJob(bench, with_ledger).run(ctx);
  const LedgerReadResult read = ledger_read(ledger);
  ASSERT_EQ(read.records.size(), 1u);
  // The ledger's config_key is the job's key rendered hex -- one identity
  // across the stage cache and the run ledger.
  EXPECT_EQ(read.records[0].config_key, hash_to_hex(key));
  EXPECT_EQ(read.records[0].source, "job_context_test");
}

TEST(JobContextPipeline, BorrowedCacheHandleAnswersARerunFromTheStore) {
  // A batch runner opens one StageCache on a store and lends it to every
  // job through JobContext::cache (perfbench campaign's warm pass). The
  // rerun must load every stage it reaches and answer as the cold run did.
  TempDir dir("scs_job_ctx_borrowed_cache");
  PipelineConfig config = fast_config();
  config.store.mode = StoreConfig::Mode::kOn;
  config.store.cache_dir = dir.str();
  StageCache cache(config.store);
  ASSERT_TRUE(cache.enabled());
  JobContext ctx;
  ctx.cache = &cache;
  const SynthesisJob job(make_benchmark(BenchmarkId::kC1), config);

  const SynthesisResult cold = job.run(ctx);
  EXPECT_TRUE(cold.cache.enabled);
  EXPECT_EQ(cold.cache.rl.misses, 1);
  EXPECT_EQ(cold.cache.rl.stores, 1);

  const SynthesisResult warm = job.run(ctx);
  EXPECT_EQ(warm.cache.rl.hits, 1);
  for (const StageCounters* stage : {&warm.cache.rl, &warm.cache.pac,
                                     &warm.cache.barrier,
                                     &warm.cache.validation})
    EXPECT_EQ(stage->misses, 0);
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.failure_stage, cold.failure_stage);
  ASSERT_EQ(warm.controller.size(), cold.controller.size());
  for (std::size_t i = 0; i < cold.controller.size(); ++i)
    EXPECT_EQ(warm.controller[i].to_string(17),
              cold.controller[i].to_string(17));
}

}  // namespace
}  // namespace scs
