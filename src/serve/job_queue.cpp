#include "serve/job_queue.hpp"

#include <algorithm>

namespace scs {

ShardedJobQueue::ShardedJobQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

ShardedJobQueue::Push ShardedJobQueue::push(int priority,
                                            std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) return Push::kClosed;
    if (items_.size() >= capacity_) return Push::kFull;
    items_.push(Item{priority, seq_++, std::move(fn)});
  }
  cv_.notify_one();
  return Push::kAccepted;
}

bool ShardedJobQueue::pop(std::function<void()>& out) {
  std::unique_lock<std::mutex> lk(m_);
  cv_.wait(lk, [&] { return !items_.empty() || closed_; });
  if (items_.empty()) return false;  // closed and drained
  // priority_queue::top() is const&; the item leaves the queue right after,
  // so moving its callable out is safe.
  out = std::move(const_cast<Item&>(items_.top()).fn);
  items_.pop();
  return true;
}

void ShardedJobQueue::close() {
  {
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t ShardedJobQueue::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return items_.size();
}

}  // namespace scs
