#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace treediff {

ThreadPool::ThreadPool(Options options)
    : capacity_(std::max<size_t>(options.queue_capacity, 1)) {
  const int n = std::max(options.num_threads, 1);
  num_threads_ = n;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    if (shutdown_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(task));
  }
  not_empty_.Signal();
  return true;
}

size_t ThreadPool::QueueDepth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

void ThreadPool::Shutdown() {
  // Claim the workers under the lock: with concurrent Shutdown calls
  // exactly one caller ends up joining each thread (the losers see an
  // empty vector), where joining the shared vector unlocked would join
  // the same std::thread twice — undefined behavior.
  std::vector<std::thread> claimed;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    claimed.swap(workers_);
  }
  not_empty_.SignalAll();
  for (std::thread& w : claimed) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) {
        not_empty_.Wait(&mu_);
      }
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace treediff
