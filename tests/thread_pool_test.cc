#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace treediff {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool({.num_threads = 4, .queue_capacity = 128});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, TrySubmitReportsFullQueue) {
  // One worker blocked on a gate; capacity 2. The first task occupies the
  // worker, the next two fill the queue, the fourth must be rejected.
  ThreadPool pool({.num_threads = 1, .queue_capacity = 2});
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  bool worker_entered = false;

  ASSERT_TRUE(pool.TrySubmit([&] {
    std::unique_lock<std::mutex> lock(mu);
    worker_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return worker_entered; });
  }
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_TRUE(pool.TrySubmit([] {}));
  EXPECT_EQ(pool.QueueDepth(), 2u);
  EXPECT_FALSE(pool.TrySubmit([] {}));  // Full: shed.
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Shutdown();
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool({.num_threads = 2, .queue_capacity = 64});
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
    }
    // Destructor runs Shutdown: every accepted task must have run.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool({.num_threads = 1, .queue_capacity = 4});
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, ClampsDegenerateOptions) {
  ThreadPool pool({.num_threads = 0, .queue_capacity = 0});
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.queue_capacity(), 1u);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran = true; }));
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ConcurrentShutdownJoinsEachWorkerOnce) {
  // Regression test: two threads racing into Shutdown used to both walk
  // workers_ and could join the same std::thread twice (UB). Shutdown now
  // claims the worker vector under the lock, so exactly one caller joins.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool({.num_threads = 4, .queue_capacity = 16});
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
    }
    std::thread racer([&pool] { pool.Shutdown(); });
    pool.Shutdown();
    racer.join();
    EXPECT_EQ(ran.load(), 8);
    EXPECT_FALSE(pool.TrySubmit([] {}));
  }
}

TEST(ThreadPoolTest, ManyProducersManyConsumers) {
  ThreadPool pool({.num_threads = 8, .queue_capacity = 32});
  std::atomic<int> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum] {
      for (int i = 0; i < 250; ++i) {
        // A full queue sheds; the producer retries, so nothing is lost.
        while (!pool.TrySubmit([&sum] { sum.fetch_add(1); })) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Shutdown();
  EXPECT_EQ(sum.load(), 1000);
}

}  // namespace
}  // namespace treediff
