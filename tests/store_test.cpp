// Tests for the content-addressed artifact store: serialization round
// trips, blob framing/corruption, stage-cache keys, and pipeline resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/pipeline.hpp"
#include "store/serialize.hpp"
#include "store/stage_cache.hpp"
#include "store/store.hpp"
#include "util/fault_injector.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

namespace fs = std::filesystem;

/// RAII temp directory for store tests.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() / tag) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

bool bits_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.begin(), b.begin(), a.size() * sizeof(double)) == 0);
}

Polynomial random_polynomial(Rng& rng, std::size_t num_vars, int max_deg) {
  Polynomial p(num_vars);
  const int terms = 1 + static_cast<int>(rng.index(12));
  for (int t = 0; t < terms; ++t) {
    std::vector<int> exps(num_vars);
    for (auto& e : exps) e = static_cast<int>(rng.index(max_deg + 1));
    p += Polynomial::term(rng.normal(), Monomial(exps));
  }
  return p;
}

// ---- Round-trip property tests: serialize -> bytes -> load is the
// identity (bit-exact) for randomly generated instances of every payload
// type, and the byte stream is deterministic (same input -> same hash).

TEST(StoreSerialize, MlpRoundTripIsBitExactProperty) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t in = 1 + rng.index(5);
    const std::size_t out = 1 + rng.index(3);
    std::vector<std::size_t> hidden;
    const std::size_t layers = rng.index(3);
    for (std::size_t l = 0; l < layers; ++l) hidden.push_back(1 + rng.index(8));
    const Mlp net(in, hidden, out, Activation::kRelu, Activation::kTanh, rng);

    BinaryWriter w;
    write_mlp(w, net);
    const std::vector<unsigned char> bytes = w.bytes();
    BinaryReader r(bytes);
    const Mlp back = read_mlp(r);
    EXPECT_TRUE(r.at_end());

    ASSERT_EQ(back.layer_count(), net.layer_count());
    EXPECT_TRUE(bits_equal(back.parameters(), net.parameters()));
    for (std::size_t l = 0; l < net.layer_count(); ++l)
      EXPECT_EQ(back.activation(l), net.activation(l));
    // Bit-identical forward pass on random probes.
    for (int probe = 0; probe < 4; ++probe) {
      const Vec x(rng.uniform_vector(in, -2.0, 2.0));
      EXPECT_TRUE(bits_equal(net.forward(x), back.forward(x)));
    }
    // Determinism: a second serialization hashes identically.
    BinaryWriter w2;
    write_mlp(w2, net);
    Fnv1a h1, h2;
    h1.update(bytes.data(), bytes.size());
    h2.update(w2.bytes().data(), w2.bytes().size());
    EXPECT_EQ(h1.digest(), h2.digest());
  }
}

TEST(StoreSerialize, PolynomialAndPacModelRoundTripProperty) {
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.index(4);
    const Polynomial p = random_polynomial(rng, n, 3);
    BinaryWriter w;
    write_polynomial(w, p);
    BinaryReader r(w.bytes());
    const Polynomial q = read_polynomial(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(p.to_string(17), q.to_string(17));

    PacModel m;
    m.poly = p;
    m.error = rng.uniform(0.0, 1.0);
    m.eps = rng.uniform(0.0, 0.1);
    m.eta = 1e-6;
    m.samples = rng.index(100000);
    m.degree = p.degree();
    m.pac_valid = rng.index(2) == 0;
    BinaryWriter wm;
    write_pac_model(wm, m);
    BinaryReader rm(wm.bytes());
    const PacModel back = read_pac_model(rm);
    EXPECT_TRUE(rm.at_end());
    EXPECT_EQ(back.poly.to_string(17), m.poly.to_string(17));
    EXPECT_EQ(std::memcmp(&back.error, &m.error, sizeof(double)), 0);
    EXPECT_EQ(back.samples, m.samples);
    EXPECT_EQ(back.pac_valid, m.pac_valid);
  }
}

// ---- Blob framing: any single flipped byte is detected.

TEST(StoreBlob, EncodeDecodeRoundTrip) {
  std::vector<unsigned char> payload;
  Rng rng(404);
  for (int i = 0; i < 2000; ++i)
    payload.push_back(static_cast<unsigned char>(rng.index(256)));
  const auto blob = encode_blob("rl", 0xdeadbeefcafe1234ull, "C3", payload);
  BlobHeader header;
  const auto out = decode_blob(blob, &header);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(header.kind, "rl");
  EXPECT_EQ(header.key, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(header.benchmark, "C3");
  EXPECT_EQ(header.format_version, kStoreFormatVersion);
}

TEST(StoreBlob, EveryFlippedByteIsDetected) {
  std::vector<unsigned char> payload{1, 2, 3, 4, 5, 6, 7, 8};
  const auto blob = encode_blob("pac", 42, "C1", payload);
  Rng rng(505);
  // Exhaustive over this small blob: header, payload, and checksum bytes.
  for (std::size_t i = 0; i < blob.size(); ++i) {
    auto corrupted = blob;
    corrupted[i] ^= static_cast<unsigned char>(1 + rng.index(255));
    EXPECT_THROW(decode_blob(corrupted), StoreError) << "byte " << i;
  }
  // Truncation at every length is detected too.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const std::vector<unsigned char> cut(blob.begin(), blob.begin() + len);
    EXPECT_THROW(decode_blob(cut), StoreError) << "len " << len;
  }
}

// ---- ArtifactStore: filesystem behavior.

TEST(ArtifactStoreTest, PutGetListVerifyGc) {
  TempDir dir("scs_store_test_fs");
  ArtifactStore store(dir.str());
  EXPECT_FALSE(store.contains("rl", 7));
  EXPECT_TRUE(store.list().empty());

  const std::vector<unsigned char> payload{10, 20, 30};
  store.put("rl", 7, "C1", payload);
  store.put("pac", 8, "C1", {1});
  EXPECT_TRUE(store.contains("rl", 7));
  const auto got = store.get("rl", 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  auto blobs = store.verify();
  ASSERT_EQ(blobs.size(), 2u);
  for (const auto& b : blobs) {
    EXPECT_TRUE(b.readable);
    EXPECT_TRUE(b.checksum_ok);
  }

  // Corrupt one blob on disk: verify flags it, gc removes it.
  const std::string path = store.blob_path("rl", 7);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  EXPECT_THROW(store.get("rl", 7), StoreError);
  int corrupt = 0;
  for (const auto& b : store.verify())
    if (!b.checksum_ok) ++corrupt;
  EXPECT_EQ(corrupt, 1);
  const auto removed = store.gc().removed;
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_FALSE(store.contains("rl", 7));
  EXPECT_TRUE(store.contains("pac", 8));
}

TEST(ArtifactStoreTest, GcEvictsToByteBudget) {
  TempDir dir("scs_store_test_gc");
  ArtifactStore store(dir.str());
  const std::vector<unsigned char> big(4096, 0xab);
  for (std::uint64_t k = 0; k < 6; ++k) store.put("rl", k, "C1", big);
  const auto removed = store.gc(2 * 4200).removed;  // budget for ~2 blobs
  EXPECT_GE(removed.size(), 4u);
  std::uint64_t left = 0;
  for (const auto& b : store.list()) left += b.file_bytes;
  EXPECT_LE(left, 2u * 4200u);
}

// ---- Concurrent writers of one key: two processes on one cache dir, or a
// batch that lists a benchmark twice.

TEST(ArtifactStoreTest, ConcurrentPutsOfOneKeyNeitherFailNorTear) {
  TempDir dir("scs_store_test_race");
  ArtifactStore store(dir.str());
  std::vector<unsigned char> payload(16 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<unsigned char>(i * 31);
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<int> failed_puts{0};
  std::atomic<int> bad_gets{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          store.put("rl", 42, "C1", payload);
        } catch (const StoreError&) {
          ++failed_puts;
        }
        // Absent or exactly the payload; a torn blob throws StoreError.
        try {
          const auto got = store.get("rl", 42);
          if (got.has_value() && *got != payload) ++bad_gets;
        } catch (const StoreError&) {
          ++bad_gets;
        }
      }
    });
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failed_puts.load(), 0);
  EXPECT_EQ(bad_gets.load(), 0);
  // No temp file outlives its writer.
  for (const auto& entry : fs::directory_iterator(dir.path))
    EXPECT_NE(entry.path().extension().string(), ".tmp")
        << entry.path().string();
}

// ---- gc vs live readers: the reader-lock interlock (store_cli gc must
// not evict blobs under a running synthesis in another process).

TEST(ArtifactStoreTest, GcDefersToOtherProcessReaders) {
  TempDir dir("scs_store_test_gc_lock");
  ArtifactStore store(dir.str());
  store.put("rl", 1, "C1", std::vector<unsigned char>(64, 0x5a));
  // Corrupt the blob so an unskipped gc would certainly remove it.
  {
    std::fstream f(store.blob_path("rl", 1),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xff');
  }
  // Simulate a lock held by another *live* process: pid 1 always exists.
  std::ofstream(dir.path / "reader-1-0.lock") << "1\n";

  const ArtifactStore::GcReport deferred = store.gc();
  EXPECT_TRUE(deferred.skipped);
  EXPECT_EQ(deferred.busy_pids, std::vector<int>{1});
  EXPECT_TRUE(deferred.removed.empty());
  EXPECT_TRUE(fs::exists(store.blob_path("rl", 1)));

  // --force overrides the interlock (the lock file itself is not a blob,
  // so it survives the pass).
  const ArtifactStore::GcReport forced = store.gc(0, /*force=*/true);
  EXPECT_FALSE(forced.skipped);
  EXPECT_EQ(forced.removed.size(), 1u);
  EXPECT_FALSE(fs::exists(store.blob_path("rl", 1)));
  EXPECT_TRUE(fs::exists(dir.path / "reader-1-0.lock"));
}

TEST(ArtifactStoreTest, GcReapsStaleLocksAndIgnoresOwnProcess) {
  TempDir dir("scs_store_test_gc_stale");
  ArtifactStore store(dir.str());
  store.put("rl", 2, "C1", std::vector<unsigned char>(64, 0x5a));

  // A lock whose owner is dead must be reaped, not block gc forever. A
  // just-reaped child pid is guaranteed dead and not yet recycled.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  const std::string stale =
      "reader-" + std::to_string(child) + "-0.lock";
  std::ofstream(dir.path / stale) << child << "\n";

  // An own-process lock (what an in-process StageCache holds) must not
  // block either -- a tool may hold a cache handle while gc'ing.
  StageCache cache([&] {
    StoreConfig cfg;
    cfg.mode = StoreConfig::Mode::kOn;
    cfg.cache_dir = dir.str();
    return cfg;
  }());
  ASSERT_TRUE(cache.enabled());

  EXPECT_TRUE(live_reader_pids(dir.str()).empty());
  EXPECT_FALSE(fs::exists(dir.path / stale));  // reaped

  const ArtifactStore::GcReport report = store.gc();
  EXPECT_FALSE(report.skipped);
  EXPECT_TRUE(fs::exists(store.blob_path("rl", 2)));  // healthy blob kept
}

// ---- Stage keys: content-addressing and upstream invalidation.

TEST(StageKeys, ConfigAndSeedChangesRekey) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  const std::uint64_t base =
      rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 100, 25);
  EXPECT_NE(base, rl_stage_key(bench, 2, cfg.ddpg, cfg.env, 100, 25));
  EXPECT_NE(base, rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 101, 25));
  DdpgConfig ddpg2 = cfg.ddpg;
  ddpg2.actor_lr *= 2.0;
  EXPECT_NE(base, rl_stage_key(bench, 1, ddpg2, cfg.env, 100, 25));
  const Benchmark other = make_benchmark(BenchmarkId::kC2);
  EXPECT_NE(base, rl_stage_key(other, 1, cfg.ddpg, cfg.env, 100, 25));
  // Same inputs -> same key (pure function of content).
  EXPECT_EQ(base, rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 100, 25));
}

TEST(StageKeys, UpstreamChangePropagatesDownstream) {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  const std::uint64_t rl1 = rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 100, 25);
  const std::uint64_t rl2 = rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 200, 25);
  const std::uint64_t pac1 = pac_stage_key(rl1, 1, bench.pac, cfg.pac_fit,
                                           bench.ccds.control_bound, 1);
  const std::uint64_t pac2 = pac_stage_key(rl2, 1, bench.pac, cfg.pac_fit,
                                           bench.ccds.control_bound, 1);
  EXPECT_NE(pac1, pac2);  // RL episode change re-keys the PAC stage
  const std::uint64_t bar1 = barrier_stage_key(pac1, cfg.barrier);
  const std::uint64_t bar2 = barrier_stage_key(pac2, cfg.barrier);
  EXPECT_NE(bar1, bar2);  // ... and the barrier stage
  EXPECT_NE(validation_stage_key(bar1, 1, cfg.validation),
            validation_stage_key(bar2, 1, cfg.validation));
  // Stages with the same upstream and config agree.
  EXPECT_EQ(bar1, barrier_stage_key(pac1, cfg.barrier));
}

TEST(StageKeys, BarrierRevisionMovesOnlyBarrierAndValidationKeys) {
  // Pinned keys of one fixed config, as computed before the barrier stage
  // revision was hashed in. RL and PAC keys must stay byte-identical (a
  // store written before keeps serving trained actors and PAC fits); the
  // barrier key, and the validation key chained from it, must move so the
  // old gate and stage-4 verdicts are recomputed, not served warm. The
  // barrier key moves again at every revision: 0x9e877907e22f6031 is the
  // revision-1 key, before SDP runs stopped at an infeasibility
  // certificate.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  const std::uint64_t rl = rl_stage_key(bench, 1, cfg.ddpg, cfg.env, 100, 25);
  const std::uint64_t pac = pac_stage_key(rl, 1, bench.pac, cfg.pac_fit,
                                          bench.ccds.control_bound, 1);
  EXPECT_EQ(rl, 0x9f3f6b86b4aff4dbull);
  EXPECT_EQ(pac, 0x1ebaf11e3db060b5ull);
  const std::uint64_t barrier = barrier_stage_key(pac, cfg.barrier);
  EXPECT_NE(barrier, 0xf123cb835e5fed3cull);
  EXPECT_NE(barrier, 0x9e877907e22f6031ull);
}

// ---- StageCache: hit/miss/corrupt accounting and fault injection.

RlStagePayload sample_rl_payload() {
  Rng rng(42);
  RlStagePayload p;
  p.actor = Mlp(2, {8}, 1, Activation::kRelu, Activation::kTanh, rng);
  p.dnn_structure = "2-8-1";
  p.eval.mean_return = -3.5;
  return p;
}

TEST(StageCacheTest, MissThenStoreThenHit) {
  TempDir dir("scs_store_test_cache");
  StoreConfig cfg;
  cfg.mode = StoreConfig::Mode::kOn;
  cfg.cache_dir = dir.str();
  StageCache cache(cfg);
  ASSERT_TRUE(cache.enabled());

  StageCounters c;
  EXPECT_FALSE(cache.load<RlStagePayload>(99, c).has_value());
  EXPECT_EQ(c.misses, 1);
  const RlStagePayload p = sample_rl_payload();
  cache.store(99, "C1", p, c);
  EXPECT_EQ(c.stores, 1);
  const auto hit = cache.load<RlStagePayload>(99, c);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(c.hits, 1);
  EXPECT_TRUE(bits_equal(hit->actor.parameters(), p.actor.parameters()));
  EXPECT_EQ(hit->dnn_structure, "2-8-1");
}

TEST(StageCacheTest, ArmedCorruptionFaultDegradesToMiss) {
  TempDir dir("scs_store_test_fault");
  StoreConfig cfg;
  cfg.mode = StoreConfig::Mode::kOn;
  cfg.cache_dir = dir.str();
  StageCache cache(cfg);
  StageCounters c;
  cache.store(7, "C1", sample_rl_payload(), c);

  // Arm only the store_corrupt site at rate 1: the next load flips a blob
  // byte in memory, the checksum catches it, and the load degrades to a
  // structured miss (corrupt counted) instead of crashing or returning
  // garbage.
  FaultInjector& inj = FaultInjector::instance();
  inj.arm(1234, 1.0, 4);
  for (int s = 0; s < static_cast<int>(FaultSite::kCount); ++s)
    inj.arm_site(static_cast<FaultSite>(s), false);
  inj.arm_site(FaultSite::kStoreCorrupt, true);
  const auto miss = cache.load<RlStagePayload>(7, c);
  const std::uint64_t fires = inj.fires(FaultSite::kStoreCorrupt);
  inj.disarm();
  EXPECT_FALSE(miss.has_value());
  EXPECT_EQ(c.corrupt, 1);
  EXPECT_EQ(c.misses, 1);
  EXPECT_EQ(c.hits, 0);
  EXPECT_EQ(fires, 1u);

  // Disarmed, the on-disk blob is intact and loads cleanly.
  const auto hit = cache.load<RlStagePayload>(7, c);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(c.hits, 1);
}

TEST(StageCacheTest, OffModeDisables) {
  StoreConfig cfg;
  cfg.mode = StoreConfig::Mode::kOff;
  cfg.cache_dir = "/tmp/should_not_be_used";
  StageCache cache(cfg);
  EXPECT_FALSE(cache.enabled());
  EXPECT_TRUE(resolve_cache_dir(cfg).empty());
}

// ---- Pipeline resume: cold run populates, warm run skips RL and
// reproduces the cold result bit for bit; a corrupted store degrades to
// recompute with identical output.

std::string controller_fingerprint(const SynthesisResult& r) {
  std::ostringstream os;
  os << r.verdict << "|" << r.dnn_structure << "|";
  for (const auto& p : r.controller) os << p.to_string(17) << ";";
  os << r.barrier.barrier.to_string(17);
  return os.str();
}

TEST(PipelineResume, WarmRunSkipsRlAndIsBitwiseIdentical) {
  TempDir dir("scs_store_test_resume");
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig cfg;
  cfg.seed = 2024;
  cfg.fast_mode = true;
  cfg.rl_episodes = 5;  // the CI perf smoke's budget
  cfg.store.mode = StoreConfig::Mode::kOn;
  cfg.store.cache_dir = dir.str();

  const SynthesisResult cold = synthesize(bench, cfg);
  EXPECT_TRUE(cold.cache.enabled);
  EXPECT_EQ(cold.cache.rl.hits, 0);
  EXPECT_EQ(cold.cache.rl.misses, 1);
  EXPECT_EQ(cold.cache.rl.stores, 1);

  // Warm run at a different thread count: still an RL hit, still bitwise
  // identical (stage keys and payloads are thread-count independent).
  set_parallel_threads(1);
  const SynthesisResult warm = synthesize(bench, cfg);
  set_parallel_threads(0);
  EXPECT_EQ(warm.cache.rl.hits, 1);
  EXPECT_EQ(warm.cache.rl.misses, 0);
  EXPECT_EQ(controller_fingerprint(warm), controller_fingerprint(cold));

  // A corrupt store never poisons a run: every armed load fails its
  // checksum, the pipeline recomputes each stage, and the output is still
  // identical to the cold run.
  FaultInjector& inj = FaultInjector::instance();
  inj.arm(99, 1.0, 100);
  for (int s = 0; s < static_cast<int>(FaultSite::kCount); ++s)
    inj.arm_site(static_cast<FaultSite>(s), false);
  inj.arm_site(FaultSite::kStoreCorrupt, true);
  const SynthesisResult recomputed = synthesize(bench, cfg);
  inj.disarm();
  EXPECT_GE(recomputed.cache.rl.corrupt + recomputed.cache.pac.corrupt +
                recomputed.cache.barrier.corrupt +
                recomputed.cache.validation.corrupt,
            1);
  EXPECT_EQ(recomputed.cache.rl.hits, 0);
  EXPECT_EQ(controller_fingerprint(recomputed), controller_fingerprint(cold));

  // Off-mode run is unaffected by (and does not touch) the store.
  PipelineConfig off = cfg;
  off.store.mode = StoreConfig::Mode::kOff;
  const SynthesisResult uncached = synthesize(bench, off);
  EXPECT_FALSE(uncached.cache.enabled);
  EXPECT_EQ(controller_fingerprint(uncached), controller_fingerprint(cold));
}

}  // namespace
}  // namespace scs
