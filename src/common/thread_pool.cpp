#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace scwc {

namespace {
std::size_t resolve_worker_count(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : n_workers_(resolve_worker_count(threads)),
      obs_epoch_(std::chrono::steady_clock::now()) {
  const std::size_t n = n_workers_;
  auto& reg = obs::MetricsRegistry::global();
  obs_submitted_ = reg.counter("scwc_common_pool_tasks_submitted_total");
  obs_completed_ = reg.counter("scwc_common_pool_tasks_completed_total");
  obs_queue_depth_ = reg.gauge("scwc_common_pool_queue_depth");
  obs_busy_seconds_ = reg.gauge("scwc_common_pool_busy_seconds");
  obs_utilization_ = reg.gauge("scwc_common_pool_utilization");
  obs_task_seconds_ = reg.histogram("scwc_common_pool_task_seconds");
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop();
  // Another thread's stop() may still be between its join phase and its
  // return; freeing the pool under it would hand it a dead join_mutex_.
  const LockGuard lock(mutex_);
  while (stops_in_flight_ != 0) cv_.wait(mutex_);
}

void ThreadPool::stop() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
    ++stops_in_flight_;
  }
  cv_.notify_all();
  // No early-out on a repeated stop(): every caller must pass through the
  // join phase so it cannot return while another thread is still joining
  // workers. join_mutex_ serialises the std::thread::join calls themselves,
  // which are not concurrency-safe on the same thread object; joinable()
  // makes the second pass a no-op.
  {
    const LockGuard join_lock(join_mutex_);
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }
  // Notify under the lock: once the destructor sees zero it frees cv_, and
  // it cannot see zero before this thread lets go of mutex_.
  const LockGuard lock(mutex_);
  --stops_in_flight_;
  cv_.notify_all();
}

bool ThreadPool::stopped() const {
  const LockGuard lock(mutex_);
  return stop_;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    const LockGuard lock(mutex_);
    // Rejecting here (instead of silently enqueueing) is what keeps a
    // caller from blocking forever on a future no worker will ever run.
    SCWC_REQUIRE(!stop_,
                 "ThreadPool::submit after stop() — the pool no longer "
                 "accepts tasks");
    // The unbounded contract is for bounded producers (parallel_for); a
    // queue this deep means an open-loop producer picked the wrong API.
    SCWC_CHECK(queue_.size() < kUnboundedQueueSanityLimit,
               "ThreadPool::submit queue exceeded the unbounded-growth "
               "sanity limit — open-loop producers must use try_submit");
    queue_.push_back(std::move(pt));
    obs_submitted_.inc();
    obs_queue_depth_.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::try_submit(std::function<void()> task,
                            std::size_t max_queue) {
  std::packaged_task<void()> pt(std::move(task));
  {
    const LockGuard lock(mutex_);
    if (stop_ || queue_.size() >= max_queue) return false;
    queue_.push_back(std::move(pt));
    obs_submitted_.inc();
    obs_queue_depth_.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

std::size_t ThreadPool::queue_depth() const {
  const LockGuard lock(mutex_);
  return queue_.size();
}

namespace {
// True on threads owned by a ThreadPool. Nested parallel_for calls from a
// worker run serially: blocking a worker on futures served by the same
// pool would deadlock once all workers wait.
thread_local bool t_inside_pool_worker = false;
}  // namespace

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  const bool timed = obs::enabled();
  for (;;) {
    std::packaged_task<void()> task;
    {
      const LockGuard lock(mutex_);
      // Explicit wait loop (not the predicate overload): clang's analysis
      // does not look inside predicate lambdas, this form it checks.
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      obs_queue_depth_.set(static_cast<double>(queue_.size()));
    }
    if (!timed) {
      task();  // exceptions land in the packaged_task's future
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const auto t1 = std::chrono::steady_clock::now();
    const double task_s = std::chrono::duration<double>(t1 - t0).count();
    obs_completed_.inc();
    obs_task_seconds_.observe(task_s);
    obs::atomic_add(busy_seconds_, task_s);
    const double busy = busy_seconds_.load(std::memory_order_relaxed);
    obs_busy_seconds_.set(busy);
    const double alive =
        std::chrono::duration<double>(t1 - obs_epoch_).count();
    if (alive > 0.0) {
      obs_utilization_.set(busy / (alive * static_cast<double>(n_workers_)));
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_blocked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

void parallel_for_blocked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_block) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t workers = pool.size();
  // A stopped pool degenerates to a serial loop instead of throwing from
  // submit — parallel_for stays usable during teardown.
  if (t_inside_pool_worker || workers <= 1 || pool.stopped() ||
      n <= std::max<std::size_t>(min_block, 1)) {
    body(begin, end);
    return;
  }
  const std::size_t blocks =
      std::min(workers, (n + min_block - 1) / std::max<std::size_t>(min_block, 1));
  const std::size_t chunk = (n + blocks - 1) / blocks;

  std::vector<std::future<void>> futures;
  futures.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + b * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace scwc
