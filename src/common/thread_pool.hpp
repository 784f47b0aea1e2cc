// Work-sharing thread pool and parallel_for.
//
// All data-parallel loops in SCWC (GEMM row blocks, random-forest trees,
// grid-search cells, simulator jobs, LSTM batches) funnel through
// scwc::parallel_for so the whole library shares one pool and one policy:
//  * tasks are chunked statically (HPC-style block decomposition),
//  * exceptions thrown by any chunk are captured and rethrown on the caller,
//  * with a single hardware thread the loop degenerates to a serial run
//    with zero scheduling overhead, keeping results deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace scwc {

/// A fixed-size pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads. Reads the immutable count, not workers_
  /// (which is guarded by join_mutex_ for the join phase).
  [[nodiscard]] std::size_t size() const noexcept { return n_workers_; }

  /// Enqueues a task; the returned future rethrows any exception.
  /// Throws scwc::Error once the pool has been stopped — a submit that used
  /// to race destruction and deadlock waiting on a future no worker would
  /// ever serve.
  ///
  /// The queue is UNBOUNDED: submit never blocks and never sheds, so a
  /// producer that outruns the workers grows the queue without limit.
  /// That is the right contract for parallel_for (which submits at most
  /// one task per worker and immediately waits), and the wrong one for an
  /// open-loop request stream — servers must use try_submit, which is how
  /// the serve layer implements admission control. As a backstop against a
  /// runaway producer, submit asserts the queue stays below
  /// kUnboundedQueueSanityLimit and throws scwc::Error beyond it.
  std::future<void> submit(std::function<void()> task);

  /// Queue depth at which submit() declares the producer runaway. Far above
  /// anything parallel_for/model training can create (they submit ≤ one
  /// task per worker); hitting it means a caller needed try_submit.
  static constexpr std::size_t kUnboundedQueueSanityLimit = 1u << 20;

  /// Non-blocking bounded submit: enqueues `task` only when fewer than
  /// `max_queue` tasks are already waiting, and returns whether it was
  /// accepted. Never blocks and never throws on a stopped pool — a stopped
  /// pool simply rejects (check stopped() to distinguish "full" from
  /// "shutting down"). The task runs detached: exceptions it throws are
  /// swallowed, so callers route failures through their own channel (the
  /// serve layer fulfils a promise inside the task). This is the primitive
  /// behind AdmissionController's load shedding.
  [[nodiscard]] bool try_submit(std::function<void()> task,
                                std::size_t max_queue);

  /// Number of tasks currently waiting in the queue (excludes running
  /// tasks). Instantaneous — use for monitoring and shed decisions only.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Drains queued tasks, then joins all workers. Idempotent and safe to
  /// call from several threads at once: EVERY call — including a second,
  /// concurrent one — returns only after all workers have exited. Called by
  /// the destructor, which also waits for every stop() already underway on
  /// another thread to return before it frees the pool. After stop() the
  /// pool permanently rejects submissions.
  void stop();

  /// True once stop() has begun (subsequent submits will throw).
  [[nodiscard]] bool stopped() const;

  /// Process-wide default pool (lazily constructed, sized to hardware).
  static ThreadPool& global();

 private:
  void worker_loop();

  mutable Mutex mutex_{"pool.queue"};
  // Serialises the join phase of stop(). Distinct from mutex_: workers take
  // mutex_ while draining, so joining under it would deadlock.
  Mutex join_mutex_{"pool.join"};
  std::vector<std::thread> workers_ SCWC_GUARDED_BY(join_mutex_);
  std::deque<std::packaged_task<void()>> queue_ SCWC_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ SCWC_GUARDED_BY(mutex_) = false;
  // stop() calls that have set stop_ and not yet returned; the destructor
  // waits on cv_ for zero.
  std::size_t stops_in_flight_ SCWC_GUARDED_BY(mutex_) = 0;

  // Observability (scwc_common_pool_*). Handles are acquired per pool at
  // construction so a pool created after obs::set_enabled(true) reports;
  // all pools share the global registry's series. Inert under SCWC_OBS=off.
  const std::size_t n_workers_;
  const std::chrono::steady_clock::time_point obs_epoch_;
  std::atomic<double> busy_seconds_{0.0};
  obs::CounterHandle obs_submitted_;
  obs::CounterHandle obs_completed_;
  obs::GaugeHandle obs_queue_depth_;
  obs::GaugeHandle obs_busy_seconds_;
  obs::GaugeHandle obs_utilization_;
  obs::HistogramHandle obs_task_seconds_;
};

/// Blocked parallel loop over [begin, end).
///
/// `body(i)` is invoked exactly once for every index; chunking is static so
/// that a fixed thread count yields a fixed work decomposition. Runs
/// serially when the range is small or the pool has one thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Blocked variant exposing the chunk range — preferred when the body can
/// amortise per-chunk setup (e.g. a per-chunk RNG or accumulator).
void parallel_for_blocked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_block = 1);

}  // namespace scwc
