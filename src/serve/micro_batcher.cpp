#include "serve/micro_batcher.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "serve/chaos.hpp"

namespace scwc::serve {

MicroBatcher::MicroBatcher(MicroBatcherConfig config, BatchRunner runner)
    : config_(config),
      max_delay_(std::chrono::duration_cast<
                 std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.max_delay_s))),
      runner_(std::move(runner)) {
  SCWC_REQUIRE(config_.max_batch > 0, "MicroBatcher: max_batch must be > 0");
  SCWC_REQUIRE(config_.max_delay_s >= 0.0,
               "MicroBatcher: max_delay_s must be >= 0");
  SCWC_REQUIRE(static_cast<bool>(runner_),
               "MicroBatcher: a batch runner is required");
  auto& reg = obs::MetricsRegistry::global();
  obs_flush_size_ = reg.counter("scwc_serve_batch_flush_size_total");
  obs_flush_deadline_ = reg.counter("scwc_serve_batch_flush_deadline_total");
  obs_flusher_wakeups_ = reg.counter("scwc_serve_batch_flusher_wakeups_total");
  obs_queue_depth_ = reg.gauge("scwc_serve_batch_queue_depth");
  flusher_ = std::thread([this] { flusher_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

bool MicroBatcher::submit(BatchRequest&& request) {
  request.enqueued = std::chrono::steady_clock::now();
  bool wake = false;
  {
    const scwc::LockGuard lock(mutex_);
    if (stop_) return false;
    // Only these pushes can end the flusher's wait: the first request (it
    // parks until the queue is non-empty), the one that fills the batch,
    // and a deadline earlier than the flush time it waits for.
    wake = pending_.empty() || pending_.size() + 1 >= config_.max_batch ||
           request.deadline < flush_at_;
    pending_.push_back(std::move(request));
    obs_queue_depth_.set(static_cast<double>(pending_.size()));
  }
  if (wake) cv_.notify_one();
  return true;
}

std::size_t MicroBatcher::pending() const {
  const scwc::LockGuard lock(mutex_);
  return pending_.size();
}

std::optional<std::chrono::steady_clock::time_point>
MicroBatcher::light_cut_at(std::size_t max_last_cut) const {
  const scwc::LockGuard lock(mutex_);
  const std::size_t light = std::min(config_.max_batch / 2, max_last_cut);
  if (stop_ || pending_.empty() || pending_.size() >= config_.max_batch ||
      last_timer_cut_ == 0 || last_timer_cut_ >= light) {
    return std::nullopt;
  }
  return std::min(pending_.front().enqueued + max_delay_,
                  min_deadline_locked());
}

std::vector<BatchRequest> MicroBatcher::cut_batch_locked() {
  std::vector<BatchRequest> batch;
  batch.reserve(std::min(config_.max_batch, pending_.size()));
  while (!pending_.empty() && batch.size() < config_.max_batch) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  obs_queue_depth_.set(static_cast<double>(pending_.size()));
  return batch;
}

std::chrono::steady_clock::time_point MicroBatcher::min_deadline_locked()
    const {
  auto min = std::chrono::steady_clock::time_point::max();
  for (const BatchRequest& request : pending_) {
    min = std::min(min, request.deadline);
  }
  return min;
}

void MicroBatcher::flusher_loop() {
  set_thread_name("flusher");
  scwc::LockGuard lock(mutex_);
  for (;;) {
    // Explicit wait loops (not the predicate overloads): clang's analysis
    // does not look inside predicate lambdas, this form it checks.
    while (!stop_ && pending_.empty()) {
      cv_.wait(mutex_);
      obs_flusher_wakeups_.inc();
    }
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Wait out the remaining deadline of the OLDEST request unless the
    // batch fills (or stop) first. wait_until re-checks under the lock, so
    // a submit racing the deadline either makes this batch or the next.
    // The wait is also bounded by the earliest per-request deadline so an
    // expired request is shed promptly instead of riding a late batch;
    // flush_at_ is recomputed after every wake because a request with an
    // earlier deadline may have arrived (submit wakes us for exactly that).
    bool filled = stop_ || pending_.size() >= config_.max_batch;
    while (!filled) {
      flush_at_ = std::min(pending_.front().enqueued + max_delay_,
                           min_deadline_locked());
      const bool timed_out =
          cv_.wait_until(mutex_, flush_at_) == std::cv_status::timeout;
      obs_flusher_wakeups_.inc();
      filled = stop_ || pending_.size() >= config_.max_batch;
      if (timed_out) break;
    }
    if (filled && !stop_) {
      obs_flush_size_.inc();
    } else if (!stop_) {
      obs_flush_deadline_.inc();
    }
    std::vector<BatchRequest> batch = cut_batch_locked();
    last_timer_cut_ = filled || stop_ ? 0 : batch.size();
    lock.unlock();
    if (config_.chaos != nullptr) config_.chaos->on_flusher_cut();
    if (!batch.empty()) runner_(std::move(batch));
    lock.lock();
    if (stop_ && pending_.empty()) return;
  }
}

void MicroBatcher::stop() {
  {
    const scwc::LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  // Serialise the join so concurrent stop() calls (destructor racing an
  // explicit stop) both return only after the flusher exited.
  const scwc::LockGuard join_lock(join_mutex_);
  if (flusher_.joinable()) flusher_.join();
}

}  // namespace scwc::serve
