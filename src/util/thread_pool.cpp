#include "util/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace scs {

namespace {

/// Which pool (if any) the current thread is a worker of, and its index
/// there. Lets submit() route tasks to the worker's own deque and protects
/// against routing into a *different* pool's deques. (Opaque pointer: the
/// Impl type is private to ThreadPool.)
thread_local const void* tls_pool = nullptr;
thread_local std::size_t tls_worker_id = 0;

}  // namespace

struct ThreadPool::Impl {
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  std::vector<std::unique_ptr<WorkerQueue>> local;
  std::vector<std::thread> threads;

  std::mutex mu;  // guards `shared` and `stop`; cv wakes idle workers
  std::condition_variable cv;
  std::deque<std::function<void()>> shared;
  bool stop = false;
  /// Tasks enqueued (any queue) and not yet started; lets sleeping workers
  /// wait on a single predicate instead of scanning every deque.
  std::atomic<std::size_t> queued{0};

  explicit Impl(std::size_t num_threads) {
    local.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
      local.push_back(std::make_unique<WorkerQueue>());
    threads.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
      threads.emplace_back([this, i] { worker_loop(i); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
  }

  bool try_pop(std::size_t self, bool is_worker, std::function<void()>& out) {
    if (is_worker) {  // own deque first, newest task (depth-first)
      WorkerQueue& q = *local[self];
      std::lock_guard<std::mutex> lk(q.mu);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.back());
        q.tasks.pop_back();
        return true;
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!shared.empty()) {
        out = std::move(shared.front());
        shared.pop_front();
        return true;
      }
    }
    // Steal the oldest task from a sibling (FIFO keeps the victim's hot
    // tail local to it).
    const std::size_t n = local.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = is_worker ? (self + 1 + k) % n : k;
      if (is_worker && victim == self) continue;
      WorkerQueue& q = *local[victim];
      std::lock_guard<std::mutex> lk(q.mu);
      if (!q.tasks.empty()) {
        out = std::move(q.tasks.front());
        q.tasks.pop_front();
        if (metrics_enabled()) {
          static Counter& steals =
              MetricsRegistry::instance().counter("pool.steals");
          steals.add(1);
        }
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t id) {
    tls_pool = this;
    tls_worker_id = id;
    set_log_tag("w" + std::to_string(id));
    for (;;) {
      std::function<void()> task;
      if (try_pop(id, true, task)) {
        queued.fetch_sub(1, std::memory_order_relaxed);
        task();
        continue;
      }
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [this] {
        return stop || queued.load(std::memory_order_relaxed) > 0;
      });
      if (stop && queued.load(std::memory_order_relaxed) == 0) return;
    }
  }

  void submit(std::function<void()> task) {
    if (local.empty()) {  // no workers: degenerate inline pool
      task();
      return;
    }
    queued.fetch_add(1, std::memory_order_relaxed);
    if (metrics_enabled()) {
      static Counter& submitted =
          MetricsRegistry::instance().counter("pool.tasks_submitted");
      submitted.add(1);
    }
    if (tls_pool == this) {
      WorkerQueue& q = *local[tls_worker_id];
      std::lock_guard<std::mutex> lk(q.mu);
      q.tasks.push_back(std::move(task));
    } else {
      std::lock_guard<std::mutex> lk(mu);
      shared.push_back(std::move(task));
    }
    cv.notify_one();
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

ThreadPool::~ThreadPool() = default;

std::size_t ThreadPool::size() const { return impl_->local.size(); }

void ThreadPool::submit(std::function<void()> task) {
  impl_->submit(std::move(task));
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_pool_override = 0;  // parallel_threads() override; 0 = env

std::size_t default_parallel_threads() {
  if (const char* env = std::getenv("SCS_THREADS")) {
    if (const std::size_t width = parse_pool_width(env)) return width;
    log_info("thread_pool: ignoring SCS_THREADS='", env,
             "' (not a whole number in 1..256)");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

std::size_t parse_pool_width(const char* text) {
  if (*text < '0' || *text > '9') return 0;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < 1 || v > 256) return 0;
  return static_cast<std::size_t>(v);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) {
    const std::size_t width =
        g_pool_override > 0 ? g_pool_override : default_parallel_threads();
    // The calling thread participates in every parallel_for, so a width of
    // W needs W - 1 workers.
    g_pool = std::make_unique<ThreadPool>(width - 1);
  }
  return *g_pool;
}

std::size_t parallel_threads() { return ThreadPool::global().size() + 1; }

void set_parallel_threads(std::size_t num_threads) {
  std::unique_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lk(g_pool_mu);
    g_pool_override = num_threads;
    old = std::move(g_pool);  // joined outside the lock
  }
  old.reset();
}

namespace {

/// Shared state of one parallel_for: an atomic chunk cursor plus a
/// completion latch. Participants claim chunk indices until none remain;
/// the chunk -> [begin, end) mapping is a pure function of the index, so
/// which thread runs a chunk never affects what it computes.
struct ForState {
  std::size_t num_chunks = 0;
  std::size_t chunk = 0;
  std::size_t n = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void run_chunks() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (!cancelled.load(std::memory_order_relaxed)) {
        try {
          const std::size_t begin = c * chunk;
          (*body)(begin, std::min(begin + chunk, n));
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu);
          if (!error) error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lk(mu);  // pairs with the waiter's lock
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  ThreadPool& pool = ThreadPool::global();
  if (num_chunks == 1 || pool.size() == 0) {
    for (std::size_t begin = 0; begin < n; begin += chunk)
      body(begin, std::min(begin + chunk, n));
    return;
  }

  auto state = std::make_shared<ForState>();
  state->num_chunks = num_chunks;
  state->chunk = chunk;
  state->n = n;
  state->body = &body;

  // Helpers only ever touch `body` after claiming a chunk, and every chunk
  // is claimed before this function returns, so the dangling-reference
  // window after return is never dereferenced; `state` is kept alive by the
  // shared_ptr captures.
  const std::size_t helpers = std::min(pool.size(), num_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    pool.submit([state] { state->run_chunks(); });

  state->run_chunks();  // the caller participates (and enables nesting)

  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] {
    return state->done.load(std::memory_order_acquire) == state->num_chunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace scs
