#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace scs {

namespace {

/// One parallel_for's region: an atomic chunk cursor plus a completion
/// latch. Participants claim chunk indices until none remain; the chunk ->
/// [begin, end) mapping is a pure function of the index, so which thread
/// runs a chunk never affects what it computes.
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

  /// Claims and runs chunks until the cursor is spent.
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

/// The workers and one list of open regions, newest last. A region is
/// listed from its parallel_for's start until a participant finds its
/// cursor spent. An idle worker joins the newest region, which is the
/// innermost one when regions nest: the outer chunk that opened it cannot
/// finish before it does.
class Pool {
 public:
  explicit Pool(std::size_t num_workers) {
    threads_.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Lists `region` and wakes up to `helpers` idle workers for it.
  void open(std::shared_ptr<ForState> region, std::size_t helpers) {
    if (metrics_enabled()) {
      static Counter& offered =
          MetricsRegistry::instance().counter("pool.tasks_submitted");
      offered.add(1);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_.push_back(std::move(region));
    }
    for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
  }

  /// Unlists a region whose cursor is spent (no-op if already unlisted).
  void withdraw(const std::shared_ptr<ForState>& region) {
    std::lock_guard<std::mutex> lk(mu_);
    std::erase(open_, region);
  }

 private:
  void worker_loop(std::size_t id) {
    set_log_tag("w" + std::to_string(id));
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      wake_.wait(lk, [this] { return stop_ || !open_.empty(); });
      if (stop_) return;
      // The shared_ptr keeps the region alive past its parallel_for, which
      // returns once every chunk is done, possibly before this worker's
      // last claim finds the cursor spent.
      const std::shared_ptr<ForState> region = open_.back();
      lk.unlock();
      region->run_chunks();
      lk.lock();
      std::erase(open_, region);
    }
  }

  std::mutex mu_;  // guards open_ and stop_; wake_ wakes idle workers
  std::vector<std::shared_ptr<ForState>> open_;
  bool stop_ = false;
  std::condition_variable wake_;
  std::vector<std::thread> threads_;
};

std::mutex g_pool_mu;
std::unique_ptr<Pool> g_pool;
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

/// The lazily created process-wide pool (sized by SCS_THREADS).
Pool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) {
    const std::size_t width =
        g_pool_override > 0 ? g_pool_override : default_parallel_threads();
    // The calling thread participates in every parallel_for, so a width of
    // W needs W - 1 workers.
    g_pool = std::make_unique<Pool>(width - 1);
  }
  return *g_pool;
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

std::size_t parallel_threads() { return global_pool().workers() + 1; }

void set_parallel_threads(std::size_t num_threads) {
  std::unique_ptr<Pool> old;
  {
    std::lock_guard<std::mutex> lk(g_pool_mu);
    g_pool_override = num_threads;
    old = std::move(g_pool);  // joined outside the lock
  }
  old.reset();
}

void parallel_for(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t num_chunks = (n + chunk - 1) / chunk;
  Pool& pool = global_pool();
  if (num_chunks == 1 || pool.workers() == 0) {
    for (std::size_t begin = 0; begin < n; begin += chunk)
      body(begin, std::min(begin + chunk, n));
    return;
  }

  auto region = std::make_shared<ForState>();
  region->num_chunks = num_chunks;
  region->chunk = chunk;
  region->n = n;
  region->body = &body;

  // Workers only touch `body` after claiming a chunk, and every chunk is
  // claimed before this function returns, so the dangling-reference window
  // after return is never dereferenced.
  pool.open(region, std::min(pool.workers(), num_chunks - 1));
  region->run_chunks();  // the caller participates (and enables nesting)
  pool.withdraw(region);

  std::unique_lock<std::mutex> lk(region->mu);
  region->cv.wait(lk, [&] {
    return region->done.load(std::memory_order_acquire) == num_chunks;
  });
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace scs
