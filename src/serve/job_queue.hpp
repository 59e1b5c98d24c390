// Bounded priority job queue for the serving daemon.
//
// One mutex guards one priority queue: consumers (worker threads) take the
// best item (priority desc, then FIFO by sequence number). Queue operations
// are nanoseconds against jobs that run for seconds, so a single lock costs
// nothing measurable.
//
// Backpressure is a hard capacity bound: push() never blocks, it reports
// kFull and the caller answers the client with retry-after. close() stops
// new pushes while letting consumers drain what was accepted -- the
// graceful-shutdown half of the protocol.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

namespace scs {

class ShardedJobQueue {
 public:
  enum class Push {
    kAccepted,
    kFull,    // capacity reached; retry later
    kClosed,  // drain in progress; permanent
  };

  /// Capacity is a strict bound on queued items.
  explicit ShardedJobQueue(std::size_t capacity);

  Push push(int priority, std::function<void()> fn);

  /// Block until an item is available (returning true with the best item)
  /// or the queue is closed *and* drained (returning false -- the
  /// consumer's signal to exit).
  bool pop(std::function<void()>& out);

  /// Stop accepting pushes. Already-accepted items remain poppable; once
  /// they are drained, pop() returns false.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Item {
    int priority = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  /// "Less" for a max-heap: lower priority is worse; same priority, later
  /// arrival (higher seq) is worse.
  struct ItemOrder {
    bool operator()(const Item& a, const Item& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  const std::size_t capacity_;
  mutable std::mutex m_;
  std::condition_variable cv_;
  std::priority_queue<Item, std::vector<Item>, ItemOrder> items_;
  std::uint64_t seq_ = 0;
  bool closed_ = false;
};

}  // namespace scs
