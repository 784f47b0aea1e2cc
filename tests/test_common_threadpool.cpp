// Unit tests for the thread pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace scwc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.stopped());
  pool.submit([] {}).get();
  pool.stop();
  EXPECT_TRUE(pool.stopped());
  EXPECT_THROW((void)pool.submit([] {}), Error);
}

TEST(ThreadPool, StopIsIdempotent) {
  ThreadPool pool(2);
  pool.stop();
  EXPECT_NO_THROW(pool.stop());
  EXPECT_TRUE(pool.stopped());
}

TEST(ThreadPool, TasksSubmittedBeforeStopStillComplete) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  pool.stop();  // drains the queue before joining
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TrySubmitRunsAcceptedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (pool.try_submit([&counter] { ++counter; }, 1024)) ++accepted;
  }
  pool.stop();  // drains the queue before joining
  EXPECT_EQ(accepted, 20);
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, TrySubmitRespectsQueueBound) {
  ThreadPool pool(1);
  // Park the single worker so queued tasks pile up deterministically.
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto parked = pool.submit([open] { open.wait(); });
  // Wait until the worker has dequeued the parked task (depth back to 0).
  while (pool.queue_depth() != 0) std::this_thread::yield();

  constexpr std::size_t kBound = 4;
  std::atomic<int> ran{0};
  for (std::size_t i = 0; i < kBound; ++i) {
    EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }, kBound));
  }
  EXPECT_EQ(pool.queue_depth(), kBound);
  // Bound reached — further try_submits shed, the queue does not grow.
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }, kBound));
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }, kBound));
  EXPECT_EQ(pool.queue_depth(), kBound);

  gate.set_value();
  parked.get();
  pool.stop();
  EXPECT_EQ(ran.load(), static_cast<int>(kBound));
}

TEST(ThreadPool, TrySubmitZeroBoundAlwaysSheds) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.try_submit([] {}, 0));
}

TEST(ThreadPool, TrySubmitAfterStopRejectsInsteadOfThrowing) {
  ThreadPool pool(2);
  pool.stop();
  EXPECT_FALSE(pool.try_submit([] {}, 1024));
  EXPECT_TRUE(pool.stopped());  // how callers tell "full" from "stopped"
}

TEST(ThreadPool, IdlePoolRunsSequentialSubmitsOnOneWorker) {
  // Idle workers are woken LIFO: with one task in flight at a time, the
  // worker that ran the last task has parked on top of the idle stack and
  // takes the next one, so every task runs on one (cache-warm) thread. A
  // FIFO wake rotates them over all four workers instead.
  ThreadPool pool(4);
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 16; ++i) {
    // Let the last worker finish parking: its future is ready before it
    // gets back onto the idle stack.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::thread::id id;
    pool.submit([&id] { id = std::this_thread::get_id(); }).get();
    ran_on.insert(id);
  }
  EXPECT_EQ(ran_on.size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RespectsOffsetRange) {
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 145);  // 10+11+...+19
}

TEST(ParallelForBlocked, CoversRangeWithContiguousBlocks) {
  std::vector<std::atomic<int>> hits(512);
  parallel_for_blocked(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("body failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, SumMatchesSerialReference) {
  std::vector<double> data(10000);
  std::iota(data.begin(), data.end(), 0.0);
  std::vector<double> out(data.size(), 0.0);
  parallel_for(0, data.size(), [&](std::size_t i) { out[i] = 2.0 * data[i]; });
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], 2.0 * data[i]);
  }
}

}  // namespace
}  // namespace scwc
