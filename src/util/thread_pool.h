#ifndef TREEDIFF_UTIL_THREAD_POOL_H_
#define TREEDIFF_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace treediff {

/// A fixed-size worker pool over one bounded multi-producer/multi-consumer
/// task queue — the execution substrate of the DiffService. The queue bound
/// is the service's admission-control lever: TrySubmit never blocks and
/// reports a full queue to the caller (which sheds the request) instead of
/// letting work pile up without limit.
///
/// Tasks are plain std::function<void()>; anything a task produces travels
/// through the closure (the service completes a std::promise). Tasks must
/// not throw.
///
/// Destruction (or Shutdown) drains the queue: already-accepted tasks run
/// to completion, then the workers join. Submitting after shutdown fails.
/// All state transitions are guarded by one Mutex and checked by the
/// thread-safety analysis.
class ThreadPool {
 public:
  struct Options {
    /// Worker count; values < 1 are clamped to 1.
    int num_threads = static_cast<int>(std::thread::hardware_concurrency());

    /// Maximum queued (not yet started) tasks; values < 1 are clamped to 1.
    size_t queue_capacity = 1024;
  };

  explicit ThreadPool(Options options);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` unless the queue is at capacity or the pool is shut
  /// down; never blocks. Returns whether the task was accepted.
  bool TrySubmit(std::function<void()> task) EXCLUDES(mu_);

  /// Tasks queued and not yet handed to a worker. A snapshot — concurrent
  /// submits and completions move it immediately.
  size_t QueueDepth() const EXCLUDES(mu_);

  size_t queue_capacity() const { return capacity_; }
  int num_threads() const { return num_threads_; }

  /// Stops accepting tasks, runs everything already queued, joins the
  /// workers. Idempotent and safe to race from several threads: the joiner
  /// claims the worker vector under the lock, so exactly one caller joins
  /// each thread.
  void Shutdown() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  size_t capacity_;
  int num_threads_ = 0;
  mutable Mutex mu_;
  CondVar not_empty_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

}  // namespace treediff

#endif  // TREEDIFF_UTIL_THREAD_POOL_H_
