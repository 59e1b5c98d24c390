// Tests for the deterministic thread pool: chunk coverage, exception
// propagation, nested regions and the workers that join them, serial
// execution at width 1, and bitwise reproducibility of reductions across
// thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_F(ThreadPoolTest, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ThreadPoolTest, EveryIndexCoveredExactlyOnce) {
  set_parallel_threads(4);
  const std::size_t n = 1037;  // deliberately not a multiple of the chunk
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, 16, [&](std::size_t begin, std::size_t end) {
    ASSERT_LT(begin, end);
    ASSERT_LE(end, n);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_F(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  const auto collect = [](std::size_t threads) {
    set_parallel_threads(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks(8);
    parallel_for(100, 13, [&](std::size_t begin, std::size_t end) {
      chunks[begin / 13] = {begin, end};
    });
    return chunks;
  };
  EXPECT_EQ(collect(1), collect(4));
}

TEST_F(ThreadPoolTest, ExceptionPropagates) {
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(1000, 8,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 504) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> calls{0};
  parallel_for(64, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST_F(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  set_parallel_threads(4);
  std::atomic<int> inner_calls{0};
  parallel_for(8, 1, [&](std::size_t, std::size_t) {
    parallel_for(32, 4, [&](std::size_t, std::size_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls.load(), 8 * 8);
}

// One outer chunk opens an inner region and the other three return at
// once, so the workers that ran them are idle while the inner region is
// open. Every inner chunk waits until a second thread has run one, which
// only an idle worker joining the inner region can bring about; the
// deadline turns a missing join into a failure instead of a hang.
TEST_F(ThreadPoolTest, IdleWorkerJoinsNestedRegion) {
  set_parallel_threads(4);
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  std::atomic<int> inner_calls{0};
  const auto distinct_threads = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return inner_threads.size();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  parallel_for(4, 1, [&](std::size_t outer, std::size_t) {
    if (outer != 0) return;
    parallel_for(64, 1, [&](std::size_t, std::size_t) {
      ++inner_calls;
      {
        std::lock_guard<std::mutex> lk(mu);
        inner_threads.insert(std::this_thread::get_id());
      }
      while (distinct_threads() < 2 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
  });
  EXPECT_EQ(inner_calls.load(), 64);
  EXPECT_GE(distinct_threads(), 2u);
}

TEST_F(ThreadPoolTest, NestedExceptionReachesOuterCaller) {
  set_parallel_threads(4);
  EXPECT_THROW(parallel_for(8, 1,
                            [](std::size_t outer, std::size_t) {
                              parallel_for(32, 4, [&](std::size_t inner,
                                                      std::size_t) {
                                if (outer == 5 && inner == 16)
                                  throw std::runtime_error("inner");
                              });
                            }),
               std::runtime_error);
  // The pool must stay usable after an exception left a nested region.
  std::atomic<int> calls{0};
  parallel_for(8, 1, [&](std::size_t, std::size_t) {
    parallel_for(32, 4, [&](std::size_t, std::size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 8 * 8);
}

TEST_F(ThreadPoolTest, WidthOneRunsEveryChunkOnTheCaller) {
  set_parallel_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  parallel_for(16, 1, [&](std::size_t begin, std::size_t) {
    ran[begin] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST_F(ThreadPoolTest, ReduceBitwiseIdenticalAcrossThreadCounts) {
  // Ill-conditioned summands: any reassociation changes the bits.
  const auto reduce_with = [](std::size_t threads) {
    set_parallel_threads(threads);
    Rng rng(3);
    std::vector<double> values(4096);
    for (auto& v : values) v = rng.normal() * std::pow(10.0, rng.uniform(-8.0, 8.0));
    return parallel_reduce(
        values.size(), 64, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double t1 = reduce_with(1);
  const double t2 = reduce_with(2);
  const double t4 = reduce_with(4);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

TEST_F(ThreadPoolTest, SetParallelThreadsReflectsWidth) {
  set_parallel_threads(3);
  EXPECT_EQ(parallel_threads(), 3u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_threads(), 1u);
  set_parallel_threads(0);
  EXPECT_GE(parallel_threads(), 1u);
}

TEST_F(ThreadPoolTest, ForkStreamsMatchesSequentialForks) {
  Rng a(17), b(17);
  std::vector<Rng> streams = a.fork_streams(5);
  ASSERT_EQ(streams.size(), 5u);
  for (auto& s : streams) {
    Rng expect = b.fork();
    for (int i = 0; i < 16; ++i)
      EXPECT_DOUBLE_EQ(s.uniform01(), expect.uniform01());
  }
}

// SCS_THREADS takes a whole decimal number in 1..256; anything else means
// the hardware default. Only the parse runs here: no pool is built from a
// rejected value (100000 once started 99,999 workers).
TEST(PoolWidth, ParsesWholeNumbersInRangeOnly) {
  for (const char* bad : {"4x", "2.5", "1e3", "0", "-1", "", "257", "100000",
                          "18446744073709551616", " 4", "+4"})
    EXPECT_EQ(parse_pool_width(bad), 0u) << "'" << bad << "'";
  EXPECT_EQ(parse_pool_width("1"), 1u);
  EXPECT_EQ(parse_pool_width("4"), 4u);
  EXPECT_EQ(parse_pool_width("256"), 256u);
}

}  // namespace
}  // namespace scs
