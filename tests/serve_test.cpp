// Serving-subsystem tests: request wire format, the bounded sharded
// priority queue, dedupe/exactly-one-cold under concurrent submission,
// warm-hit identity, graceful drain, ledger integrity, queued-job
// cancellation, and the spool protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "serve/job_queue.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/spool.hpp"
#include "util/hash.hpp"

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

JobRequest fast_request(std::uint64_t seed) {
  JobRequest r;
  r.benchmark = "C1";
  r.seed = seed;
  r.fast_mode = true;
  r.rl_episodes = 2;
  return r;
}

// ---- Request wire format.

TEST(JobRequestWire, RoundTripsThroughJson) {
  JobRequest r;
  r.id = "my \"job\"";  // escaping must survive
  r.benchmark = "C3";
  r.seed = 42;
  r.fast_mode = true;
  r.rl_episodes = 17;
  r.priority = -3;
  r.deadline_seconds = 1.5;

  JobRequest back;
  std::string error;
  ASSERT_TRUE(parse_job_request(job_request_json(r), &back, &error)) << error;
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.benchmark, r.benchmark);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.fast_mode, r.fast_mode);
  EXPECT_EQ(back.rl_episodes, r.rl_episodes);
  EXPECT_EQ(back.priority, r.priority);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, r.deadline_seconds);
}

TEST(JobRequestWire, RejectsMalformedRequests) {
  JobRequest out;
  std::string error;
  EXPECT_FALSE(parse_job_request("not json", &out, &error));
  EXPECT_FALSE(parse_job_request("[1,2]", &out, &error));
  EXPECT_FALSE(parse_job_request("{\"seed\":1}", &out, &error));
  EXPECT_NE(error.find("benchmark"), std::string::npos);
  // Defaults apply for optional fields.
  ASSERT_TRUE(parse_job_request("{\"benchmark\":\"C1\"}", &out, &error));
  EXPECT_EQ(out.seed, 1u);
  EXPECT_EQ(out.rl_episodes, -1);
}

TEST(JobRequestWire, ServeKeyIgnoresSchedulingFields) {
  // The dedupe key is synthesis identity: scheduling knobs (priority,
  // deadline, client id) must not fragment the cache.
  JobRequest a = fast_request(5);
  JobRequest b = a;
  b.id = "different-client";
  b.priority = 9;
  b.deadline_seconds = 123.0;
  EXPECT_EQ(serve_key(a), serve_key(b));

  JobRequest c = a;
  c.seed = 6;
  EXPECT_NE(serve_key(a), serve_key(c));
  JobRequest d = a;
  d.fast_mode = false;
  EXPECT_NE(serve_key(a), serve_key(d));
}

TEST(JobRequestWire, KnowsAllBenchmarks) {
  EXPECT_TRUE(benchmark_id_from_name("C1").has_value());
  EXPECT_TRUE(benchmark_id_from_name("C10").has_value());
  EXPECT_FALSE(benchmark_id_from_name("C99").has_value());
  EXPECT_FALSE(benchmark_id_from_name("").has_value());
}

// ---- ShardedJobQueue.

TEST(ShardedJobQueue, PopsByPriorityThenFifo) {
  ShardedJobQueue q(16);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    const int priority = (i % 2 == 0) ? 0 : 5;
    ASSERT_EQ(q.push(priority, [&order, i] { order.push_back(i); }),
              ShardedJobQueue::Push::kAccepted);
  }
  std::function<void()> fn;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.pop(fn));
    fn();
  }
  // Priority 5 first (1, 3, 5 in arrival order), then priority 0 (0, 2, 4).
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 0, 2, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ShardedJobQueue, EnforcesCapacityAndReportsFull) {
  ShardedJobQueue q(2);
  EXPECT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kAccepted);
  EXPECT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kAccepted);
  EXPECT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kFull);
  std::function<void()> fn;
  ASSERT_TRUE(q.pop(fn));
  EXPECT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kAccepted);
}

TEST(ShardedJobQueue, CloseDrainsThenStops) {
  ShardedJobQueue q(8);
  ASSERT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kAccepted);
  ASSERT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kAccepted);
  q.close();
  EXPECT_EQ(q.push(0, [] {}), ShardedJobQueue::Push::kClosed);
  std::function<void()> fn;
  EXPECT_TRUE(q.pop(fn));   // accepted items stay poppable
  EXPECT_TRUE(q.pop(fn));
  EXPECT_FALSE(q.pop(fn));  // drained + closed -> consumer exit signal
}

TEST(ShardedJobQueue, ConcurrentPushPopLosesNothing) {
  // 4 producers x 250 items against 4 consumers; every item runs exactly
  // once and the capacity bound holds throughout.
  ShardedJobQueue q(64);
  constexpr int kProducers = 4, kPerProducer = 250;
  std::atomic<int> executed{0}, rejected{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        for (;;) {
          const auto outcome = q.push(i % 3, [&executed] { ++executed; });
          if (outcome == ShardedJobQueue::Push::kAccepted) break;
          ASSERT_EQ(outcome, ShardedJobQueue::Push::kFull);
          ++rejected;
          std::this_thread::yield();
        }
        ASSERT_LE(q.size(), 64u);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      std::function<void()> fn;
      while (q.pop(fn)) fn();
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(executed.load(), kProducers * kPerProducer);
}

// ---- SynthesisServer: the exactly-one-cold stress (satellite: concurrent
// submission), warm-hit identity, drain, ledger integrity.

TEST(SynthesisServer, ConcurrentDuplicateSubmitsRunExactlyOneColdPerKey) {
  TempDir ledger_dir("scs_serve_stress_ledger");
  const std::string ledger = (ledger_dir.path / "ledger.jsonl").string();

  ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.store.mode = StoreConfig::Mode::kOff;
  config.ledger_path = ledger;

  constexpr int kUniqueKeys = 2;
  constexpr int kThreads = 6;

  std::atomic<std::uint64_t> accepted{0}, attached{0};
  {
    SynthesisServer server(config);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&] {
        for (int u = 0; u < kUniqueKeys; ++u) {
          // Every thread submits every unique request -> duplicates race.
          const auto s = server.submit(fast_request(100 + u));
          ASSERT_NE(s.kind, SynthesisServer::Submit::Kind::kRejected)
              << s.error;
          if (s.kind == SynthesisServer::Submit::Kind::kAccepted)
            ++accepted;
          else
            ++attached;
        }
      });
    }
    for (auto& t : submitters) t.join();
    std::vector<std::uint64_t> keys(kUniqueKeys, 0);
    for (int u = 0; u < kUniqueKeys; ++u)
      keys[u] = serve_key(fast_request(100 + u));

    // Exactly one submission per key was accepted for a cold run; all
    // others attached (duplicate in flight or warm hit).
    EXPECT_EQ(accepted.load(), static_cast<std::uint64_t>(kUniqueKeys));
    EXPECT_EQ(attached.load(),
              static_cast<std::uint64_t>(kThreads * kUniqueKeys - kUniqueKeys));

    // All waiters for one key see the *same* result object.
    for (int u = 0; u < kUniqueKeys; ++u) {
      const auto r1 = server.wait(keys[u]);
      const auto r2 = server.result(keys[u]);
      ASSERT_NE(r1, nullptr);
      EXPECT_EQ(r1.get(), r2.get());
      EXPECT_EQ(r1->benchmark, "C1");
    }

    server.drain();
    EXPECT_EQ(server.cold_runs(), static_cast<std::uint64_t>(kUniqueKeys));
    EXPECT_EQ(server.submitted(),
              static_cast<std::uint64_t>(kThreads * kUniqueKeys));
    EXPECT_EQ(server.duplicates() + server.warm_hits(), attached.load());
    EXPECT_EQ(server.rejected(), 0u);
    EXPECT_EQ(server.queue_depth(), 0u);

    // A post-drain submit is rejected, not lost silently.
    const auto late = server.submit(fast_request(999));
    EXPECT_EQ(late.kind, SynthesisServer::Submit::Kind::kRejected);

    // Ledger integrity: one "serve" record per cold run, one "serve-hit"
    // record per warm hit, one "serve-rejected" record per rejection (the
    // post-drain submit above), nothing torn, nothing duplicated.
    const LedgerReadResult read = ledger_read(ledger);
    EXPECT_EQ(read.skipped, 0);
    std::uint64_t cold_records = 0, hit_records = 0, rejected_records = 0;
    for (const LedgerRecord& rec : read.records) {
      if (rec.source == "serve") ++cold_records;
      if (rec.source == "serve-hit") ++hit_records;
      if (rec.source == "serve-rejected") {
        ++rejected_records;
        EXPECT_EQ(rec.verdict, "REJECTED");
      }
    }
    EXPECT_EQ(cold_records, server.cold_runs());
    EXPECT_EQ(hit_records, server.warm_hits());
    EXPECT_EQ(rejected_records, server.rejected());
    EXPECT_EQ(read.records.size(),
              cold_records + hit_records + rejected_records);
  }
}

TEST(SynthesisServer, CancelledQueuedJobFinishesCancelledWithoutSolverWork) {
  ServerConfig config;
  config.workers = 1;  // force the second job to queue behind the first
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);

  const auto first = server.submit(fast_request(200));
  ASSERT_EQ(first.kind, SynthesisServer::Submit::Kind::kAccepted);
  const auto second = server.submit(fast_request(201));
  ASSERT_EQ(second.kind, SynthesisServer::Submit::Kind::kAccepted);

  EXPECT_TRUE(server.cancel(second.key));
  const auto result = server.wait(second.key);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->verdict, "CANCELLED");
  EXPECT_FALSE(result->success);
  // The cancelled job hit the first stage gate: no RL training, no solver.
  EXPECT_EQ(result->failure_stage, "rl");

  EXPECT_FALSE(server.cancel(second.key));  // already done
  EXPECT_FALSE(server.cancel(0xdeadbeef));  // unknown key
  server.drain();
}

TEST(SynthesisServer, WarmHitMatchesDirectJobRunBitwise) {
  // Golden server-vs-CLI: the served result must be the same bytes a
  // direct SynthesisJob run (what synthesize_cli does) produces.
  const JobRequest request = fast_request(300);
  const SynthesisResult direct =
      make_job(request, StoreConfig{StoreConfig::Mode::kOff, ""}, "").run();

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  const auto submit = server.submit(request);
  ASSERT_EQ(submit.kind, SynthesisServer::Submit::Kind::kAccepted);
  const auto served = server.wait(submit.key);
  ASSERT_NE(served, nullptr);

  EXPECT_EQ(served->verdict, direct.verdict);
  ASSERT_EQ(served->controller.size(), direct.controller.size());
  for (std::size_t i = 0; i < direct.controller.size(); ++i)
    EXPECT_EQ(served->controller[i].to_string(17),
              direct.controller[i].to_string(17));
  EXPECT_EQ(served->barrier.barrier.to_string(17),
            direct.barrier.barrier.to_string(17));

  // And a repeat submit is a warm hit answered from memory.
  const auto again = server.submit(request);
  EXPECT_EQ(again.kind, SynthesisServer::Submit::Kind::kWarmHit);
  EXPECT_EQ(server.result(again.key).get(), served.get());
  server.drain();
}

// ---- Spool protocol.

TEST(Spool, IngestsRequestsAndWritesResults) {
  TempDir spool("scs_spool_test");
  SpoolLayout layout{spool.str()};
  std::string error;
  ASSERT_TRUE(spool_init(layout, &error)) << error;

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  SpoolRunner runner(server, layout);

  // A malformed request and an unknown benchmark both produce rejection
  // result files; a valid request is ingested and swept when done.
  std::ofstream(layout.inbox() + "/bad.json") << "{ nope";
  ASSERT_TRUE(atomic_write_file(
      layout.inbox() + "/unknown.json",
      "{\"id\":\"unknown\",\"benchmark\":\"C99\"}"));
  JobRequest good = fast_request(400);
  good.id = "good";
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/good.json",
                                job_request_json(good)));

  runner.poll_once();
  EXPECT_TRUE(fs::exists(layout.results() + "/bad.json"));
  EXPECT_TRUE(fs::exists(layout.results() + "/unknown.json"));
  EXPECT_TRUE(fs::exists(layout.inbox()) &&
              !fs::exists(layout.inbox() + "/good.json"));
  EXPECT_EQ(runner.pending(), 1u);

  // Wait for the job, then the next poll sweeps the result file out.
  const std::uint64_t key = serve_key(good);
  ASSERT_NE(server.wait(key), nullptr);
  runner.poll_once();
  EXPECT_EQ(runner.pending(), 0u);
  ASSERT_TRUE(fs::exists(layout.results() + "/good.json"));

  // The result and status files are strict JSON with the expected fields.
  std::stringstream result_text;
  result_text << std::ifstream(layout.results() + "/good.json").rdbuf();
  EXPECT_NE(result_text.str().find("\"id\":\"good\""), std::string::npos);
  EXPECT_NE(result_text.str().find("\"verdict\""), std::string::npos);
  std::stringstream status_text;
  status_text << std::ifstream(layout.status_file()).rdbuf();
  EXPECT_NE(status_text.str().find("\"cold_runs\":1"), std::string::npos);

  // Drain marker protocol.
  EXPECT_FALSE(runner.drain_requested());
  ASSERT_TRUE(atomic_write_file(layout.drain_file(), "drain\n"));
  EXPECT_TRUE(runner.drain_requested());

  // Post-drain polls never ingest: a leftover inbox file survives for the
  // next server instance instead of being bounced as a rejection.
  server.drain();
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/later.json",
                                job_request_json(fast_request(401))));
  runner.poll_once();
  EXPECT_TRUE(fs::exists(layout.inbox() + "/later.json"));
}

TEST(Spool, DuplicateIdWithDifferentConfigIsRejectedNotOrphaned) {
  // Regression: a client reusing an explicit id while the first request
  // under that id is still in flight used to overwrite the pending entry
  // (pending_[id] = p), orphaning the original -- its result was swept
  // under the duplicate's key and the original job's output never
  // surfaced. The duplicate must be rejected; the original must still
  // complete and produce its result.
  TempDir spool("scs_spool_dup_test");
  SpoolLayout layout{spool.str()};
  std::string error;
  ASSERT_TRUE(spool_init(layout, &error)) << error;

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  SpoolRunner runner(server, layout);

  JobRequest original = fast_request(500);
  original.id = "shared";
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/a_original.json",
                                job_request_json(original)));
  runner.poll_once();
  EXPECT_EQ(runner.pending(), 1u);

  // Same id, different seed => different serve key: a client error.
  JobRequest duplicate = fast_request(501);
  duplicate.id = "shared";
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/b_duplicate.json",
                                job_request_json(duplicate)));
  runner.poll_once();

  // The duplicate is bounced with a REJECTED result, and the original's
  // pending entry survives under its own key.
  EXPECT_EQ(runner.pending(), 1u);
  EXPECT_FALSE(fs::exists(layout.inbox() + "/b_duplicate.json"));
  {
    std::stringstream text;
    text << std::ifstream(layout.results() + "/shared.json").rdbuf();
    EXPECT_NE(text.str().find("\"verdict\":\"REJECTED\""), std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("already in flight"), std::string::npos);
  }

  // The original still completes and its genuine result replaces the
  // rejection note at the shared id.
  ASSERT_NE(server.wait(serve_key(original)), nullptr);
  runner.poll_once();
  EXPECT_EQ(runner.pending(), 0u);
  std::stringstream text;
  text << std::ifstream(layout.results() + "/shared.json").rdbuf();
  EXPECT_EQ(text.str().find("\"verdict\":\"REJECTED\""), std::string::npos);
  EXPECT_NE(text.str().find("\"id\":\"shared\""), std::string::npos);

  // Same id, same config: legitimate duplicate -- dedupes onto the (now
  // finished) job as a warm hit instead of a rejection.
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/c_same.json",
                                job_request_json(original)));
  runner.poll_once();
  std::stringstream warm;
  warm << std::ifstream(layout.results() + "/shared.json").rdbuf();
  EXPECT_EQ(warm.str().find("REJECTED"), std::string::npos);
}

// ---- Observability (PR 10): backpressure counters, schema-2 status,
// cancel markers, the daemon summary, and request-correlated tracing.

TEST(SynthesisServer, QueueFullSubmitCountsOverflowAndHintsRetry) {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;  // worker busy + 1 queued = full
  config.store.mode = StoreConfig::Mode::kOff;
  config.retry_after_seconds = 2.5;
  SynthesisServer server(config);

  const auto running = server.submit(fast_request(600));
  ASSERT_EQ(running.kind, SynthesisServer::Submit::Kind::kAccepted);
  // Give the single worker a moment to pop the first job off the queue.
  const auto queued = [&] {
    for (int tries = 0; tries < 200; ++tries) {
      const auto s = server.submit(fast_request(601));
      if (s.kind == SynthesisServer::Submit::Kind::kAccepted) return s;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return server.submit(fast_request(601));
  }();
  ASSERT_EQ(queued.kind, SynthesisServer::Submit::Kind::kAccepted);

  // The retry loop above may itself have bounced off a full queue, so
  // assert the *delta* caused by this one overflowing submit.
  const std::uint64_t overflow_before = server.overflow();
  const auto overflow = server.submit(fast_request(602));
  EXPECT_EQ(overflow.kind, SynthesisServer::Submit::Kind::kRejected);
  EXPECT_DOUBLE_EQ(overflow.retry_after_seconds, 2.5);
  EXPECT_NE(overflow.error.find("queue full"), std::string::npos)
      << overflow.error;
  EXPECT_EQ(server.overflow(), overflow_before + 1);
  EXPECT_EQ(server.rejected(), server.overflow());

  // Cut the queued job short so the test doesn't pay a second cold solve.
  EXPECT_TRUE(server.cancel(queued.key));
  const auto result = server.wait(queued.key);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->verdict, "CANCELLED");
  server.drain();
  EXPECT_EQ(server.cancelled(), 1u);
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(Spool, StatusSchemaTwoExposesCountersAndNullLatency) {
  TempDir spool("scs_spool_status_test");
  SpoolLayout layout{spool.str()};
  std::string error;
  ASSERT_TRUE(spool_init(layout, &error)) << error;
  EXPECT_TRUE(fs::exists(layout.cancel_dir()));

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  SpoolRunner runner(server, layout);
  runner.set_instance("unit");
  runner.write_status();

  std::stringstream text;
  text << std::ifstream(layout.status_file()).rdbuf();
  const std::string s = text.str();
  EXPECT_NE(s.find("\"schema\":2"), std::string::npos) << s;
  EXPECT_NE(s.find("\"kind\":\"serve_status\""), std::string::npos);
  EXPECT_NE(s.find("\"instance\":\"unit\""), std::string::npos);
  EXPECT_NE(s.find("\"queue_capacity\":64"), std::string::npos);
  EXPECT_NE(s.find("\"retry_after_seconds\""), std::string::npos);
  EXPECT_NE(s.find("\"counters\":{\"submitted\":0"), std::string::npos);
  EXPECT_NE(s.find("\"overflow\":0"), std::string::npos);
  // No traffic yet: latency quantiles are explicit nulls, never 0.
  EXPECT_NE(s.find("\"queue_wait_ms\":{\"count\":0,\"p50\":null"),
            std::string::npos)
      << s;
  server.drain();
}

TEST(Spool, CancelMarkerCancelsPendingJobAndIsConsumed) {
  TempDir spool("scs_spool_cancel_test");
  SpoolLayout layout{spool.str()};
  std::string error;
  ASSERT_TRUE(spool_init(layout, &error)) << error;

  ServerConfig config;
  config.workers = 1;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  SpoolRunner runner(server, layout);

  // Two jobs through the inbox; the second queues behind the first.
  JobRequest first = fast_request(700);
  first.id = "keep";
  JobRequest second = fast_request(701);
  second.id = "kill";
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/a.json",
                                job_request_json(first)));
  ASSERT_TRUE(atomic_write_file(layout.inbox() + "/b.json",
                                job_request_json(second)));
  runner.poll_once();
  EXPECT_EQ(runner.pending(), 2u);

  // A marker for an unknown id is deferred, not consumed: the request may
  // still be racing through the inbox, so the next poll retries it. A marker
  // for an id whose result already exists is a no-op and is consumed.
  ASSERT_TRUE(atomic_write_file(layout.cancel_dir() + "/nobody", "cancel\n"));
  EXPECT_EQ(runner.apply_cancel_markers(), 0);
  EXPECT_TRUE(fs::exists(layout.cancel_dir() + "/nobody"));
  ASSERT_TRUE(atomic_write_file(layout.results() + "/nobody.json", "{}\n"));
  EXPECT_EQ(runner.apply_cancel_markers(), 0);
  EXPECT_FALSE(fs::exists(layout.cancel_dir() + "/nobody"));
  fs::remove(layout.results() + "/nobody.json");

  // The real marker cancels the queued job cooperatively.
  ASSERT_TRUE(atomic_write_file(layout.cancel_dir() + "/kill", "cancel\n"));
  EXPECT_EQ(runner.apply_cancel_markers(), 1);
  EXPECT_FALSE(fs::exists(layout.cancel_dir() + "/kill"));
  const auto result = server.wait(serve_key(second));
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->verdict, "CANCELLED");

  ASSERT_NE(server.wait(serve_key(first)), nullptr);
  runner.poll_once();
  std::stringstream text;
  text << std::ifstream(layout.results() + "/kill.json").rdbuf();
  EXPECT_NE(text.str().find("\"verdict\":\"CANCELLED\""), std::string::npos)
      << text.str();
  server.drain();
}

TEST(Spool, DaemonSummaryRecordCarriesLostRequestSignal) {
  TempDir spool("scs_spool_summary_test");
  TempDir ledger_dir("scs_spool_summary_ledger");
  const std::string ledger = (ledger_dir.path / "runs.jsonl").string();
  SpoolLayout layout{spool.str()};
  std::string error;
  ASSERT_TRUE(spool_init(layout, &error)) << error;

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  config.ledger_path = ledger;
  SynthesisServer server(config);
  SpoolRunner runner(server, layout);
  runner.set_instance("summary-unit");

  JobRequest r = fast_request(800);
  r.id = "only";
  ASSERT_TRUE(
      atomic_write_file(layout.inbox() + "/only.json", job_request_json(r)));
  runner.poll_once();
  ASSERT_NE(server.wait(serve_key(r)), nullptr);
  runner.poll_once();
  EXPECT_EQ(runner.ingested_total(), 1u);
  EXPECT_EQ(runner.results_written(), 1u);
  server.drain();
  ASSERT_TRUE(runner.append_daemon_summary());

  const LedgerReadResult read = ledger_read(ledger);
  const LedgerRecord* summary = nullptr;
  for (const LedgerRecord& rec : read.records)
    if (rec.kind == "bench" && rec.source == "serve_daemon") summary = &rec;
  ASSERT_NE(summary, nullptr);
  EXPECT_NE(summary->values_json.find("\"instance\":\"summary-unit\""),
            std::string::npos)
      << summary->values_json;
  EXPECT_NE(summary->values_json.find("\"ingested\":1"), std::string::npos);
  EXPECT_NE(summary->values_json.find("\"results_written\":1"),
            std::string::npos);
  EXPECT_NE(summary->values_json.find("\"queue_wait_ms\""),
            std::string::npos);
}

TEST(SynthesisServer, TracedServeTagsLifecycleWithRequestId) {
  trace_stop();
  trace_clear();
  trace_start((fs::temp_directory_path() / "scs_serve_trace.json").string());

  ServerConfig config;
  config.store.mode = StoreConfig::Mode::kOff;
  SynthesisServer server(config);
  JobRequest request = fast_request(900);
  request.id = "rid-cold";
  const auto cold = server.submit(request);
  ASSERT_EQ(cold.kind, SynthesisServer::Submit::Kind::kAccepted);
  ASSERT_NE(server.wait(cold.key), nullptr);
  JobRequest again = request;
  again.id = "rid-warm";
  const auto warm = server.submit(again);
  EXPECT_EQ(warm.kind, SynthesisServer::Submit::Kind::kWarmHit);
  server.drain();

  bool saw_cold_submit = false, saw_queue_wait = false, saw_publish = false;
  bool saw_warm_instant = false;
  for (const TraceEvent& e : trace_snapshot()) {
    if (e.name == "serve.submit" && e.id == "rid-cold") saw_cold_submit = true;
    if (e.name == "serve.queue_wait" && e.id == "rid-cold")
      saw_queue_wait = true;
    if (e.name == "serve.result_publish" && e.id == "rid-cold")
      saw_publish = true;
    if (e.name == "serve.warm_hit" && e.id == "rid-warm")
      saw_warm_instant = true;
  }
  trace_stop();
  trace_clear();
  EXPECT_TRUE(saw_cold_submit);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_publish);
  EXPECT_TRUE(saw_warm_instant);
}

}  // namespace
}  // namespace scs
