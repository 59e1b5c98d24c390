// Deterministic parallel execution.
//
// A small work-stealing thread pool plus chunked `parallel_for` /
// `parallel_reduce` helpers. Determinism is the design constraint: work is
// partitioned into fixed-size chunks that depend only on the problem size
// (never on the worker count), every chunk writes to its own output slot,
// and reductions combine per-chunk results in chunk order. Together with
// per-chunk Rng substreams (Rng::fork_streams) this makes every parallel
// result bitwise-identical for 1, 2, or 16 threads.
//
// The global pool is created lazily; its size comes from the SCS_THREADS
// environment variable, a whole number in 1..256 (default, and for any
// other value: hardware concurrency). SCS_THREADS=1 runs everything inline
// on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace scs {

/// Work-stealing pool: each worker owns a deque (LIFO for its own tasks,
/// FIFO for thieves) plus a shared injection queue for external submitters.
class ThreadPool {
 public:
  /// Spawns exactly `num_threads` worker threads (0 = no workers; submit()
  /// then runs tasks inline on the caller).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const;

  /// Enqueue a task. From a worker thread of this pool the task lands on
  /// that worker's own deque (depth-first, cache-friendly); otherwise on
  /// the shared injection queue. With no workers the task runs inline.
  void submit(std::function<void()> task);

  /// The lazily created process-wide pool (sized by SCS_THREADS).
  static ThreadPool& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Total execution width of the global pool: workers + the calling thread
/// (>= 1; 1 means serial execution).
std::size_t parallel_threads();

/// SCS_THREADS's pool width: the whole of `text` as a decimal integer in
/// 1..256, else 0 (the caller keeps the hardware default). Every width gives
/// the same bits, so the bound only guards against typos.
std::size_t parse_pool_width(const char* text);

/// Rebuild the global pool so that `parallel_threads()` == num_threads
/// (0 restores the SCS_THREADS / hardware default). Joins the old workers;
/// only safe while no parallel work is in flight. Meant for tests and
/// benchmarks that compare thread counts.
void set_parallel_threads(std::size_t num_threads);

/// Deterministic chunked parallel loop over [0, n): the range is split into
/// fixed `chunk`-sized pieces independent of the worker count, and
/// `body(begin, end)` runs exactly once per piece (the last piece may be
/// short). The caller participates, so nested calls from inside a body
/// cannot deadlock. The first exception thrown by a body cancels the
/// not-yet-started chunks and is rethrown here.
void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Deterministic map-reduce over [0, n): `map(begin, end)` produces one
/// partial result per fixed-size chunk and `combine` folds the partials in
/// chunk order, so floating-point reductions are bitwise-reproducible at
/// any thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t chunk, T identity, Map&& map,
                  Combine&& combine) {
  if (n == 0) return identity;
  if (chunk == 0) chunk = 1;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  std::vector<T> partial(num_chunks, identity);
  parallel_for(n, chunk, [&](std::size_t begin, std::size_t end) {
    partial[begin / chunk] = map(begin, end);
  });
  T acc = std::move(identity);
  for (auto& p : partial) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace scs
