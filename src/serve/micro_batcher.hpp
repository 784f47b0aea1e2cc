// Deadline/size micro-batching of concurrent classification requests.
//
// Single-window inference wastes the matrix-shaped fast paths below it
// (one pipeline transform + one Classifier::predict per window). The
// MicroBatcher queues incoming requests and flushes them as ONE batch when
// either the batch is full (max_batch) or the oldest request has waited
// max_delay_s — the classic latency/throughput knob of online serving.
//
// The batcher owns a dedicated flusher thread; batch execution itself is
// delegated to a BatchRunner callback installed by the owning service
// (which typically hops onto the shared ThreadPool through the
// AdmissionController). Each request carries a promise; whatever happens —
// flush, shutdown, runner failure — the promise is fulfilled exactly once.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_types.hpp"

namespace scwc::serve {

class ChaosInjector;  // serve/chaos.hpp — optional fault injection hook

/// Flush policy. Defaults favour throughput at a 5 ms latency budget.
struct MicroBatcherConfig {
  std::size_t max_batch = 64;   ///< flush immediately at this size
  double max_delay_s = 0.005;   ///< flush when the oldest request is this old
  /// Optional seeded fault injector (chaos testing only). When set, the
  /// flusher calls ChaosInjector::on_flusher_cut() after each batch cut,
  /// which may stall the flusher thread. Must outlive the batcher.
  ChaosInjector* chaos = nullptr;
};

/// One queued classification request.
struct BatchRequest {
  /// Row-major steps × sensors. Execution classifies this buffer in place:
  /// afterwards it holds the repaired values, and nothing reads it again.
  std::vector<double> window;
  std::size_t steps = 0;
  std::size_t sensors = 0;
  /// Request-trace identity (service-stamped; see obs/request_trace.hpp).
  std::uint64_t trace_id = 0;
  std::int64_t job_id = -1;    ///< source job, -1 when unattributed
  bool trace_sampled = false;  ///< head-sampling verdict, fixed at submit
  /// Service submit entry (before admission); `enqueued` minus this is
  /// the admission phase.
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point enqueued;
  /// Absolute deadline; time_point::max() (the default) means "none".
  /// Requests whose deadline passed while queued are cut out of the batch
  /// and handed to the expired handler instead of the runner.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::promise<ServeResult> promise;
};

/// Coalesces submitted requests into batches under a deadline/size policy.
class MicroBatcher {
 public:
  /// Receives the cut batch and must fulfil every request's promise.
  using BatchRunner = std::function<void(std::vector<BatchRequest>&&)>;
  /// Receives one request whose deadline expired while queued and must
  /// fulfil its promise (typically with kDeadlineExceeded).
  using ExpiredHandler = std::function<void(BatchRequest&&)>;

  /// Starts the flusher thread. `runner` is called on the flusher thread,
  /// once per cut batch, never concurrently with itself. `expired` (when
  /// set) receives requests whose deadline passed while queued, also on the
  /// flusher thread; without it expired requests stay in the batch and the
  /// runner is expected to apply its own deadline policy.
  MicroBatcher(MicroBatcherConfig config, BatchRunner runner,
               ExpiredHandler expired = nullptr);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one request (stamping `enqueued`) and returns true, or
  /// returns false after stop() — the caller then fulfils the promise
  /// itself with a shutdown rejection.
  [[nodiscard]] bool submit(BatchRequest&& request);

  /// Requests currently queued (instantaneous; admission reads this).
  [[nodiscard]] std::size_t pending() const;

  /// Flushes every queued request, then joins the flusher. Idempotent.
  /// After stop() submit() returns false.
  void stop();

  [[nodiscard]] const MicroBatcherConfig& config() const noexcept {
    return config_;
  }

 private:
  void flusher_loop();
  /// Cuts up to max_batch requests off the queue front.
  /// When an expired handler is installed, requests whose deadline ≤ now are
  /// diverted into `expired` (they do not count against max_batch).
  std::vector<BatchRequest> cut_batch_locked(
      std::chrono::steady_clock::time_point now,
      std::vector<BatchRequest>& expired) SCWC_REQUIRES(mutex_);
  /// Earliest pending deadline, or time_point::max().
  [[nodiscard]] std::chrono::steady_clock::time_point min_deadline_locked()
      const SCWC_REQUIRES(mutex_);

  const MicroBatcherConfig config_;
  const BatchRunner runner_;
  const ExpiredHandler expired_handler_;

  mutable Mutex mutex_{"serve.batcher.queue"};
  CondVar cv_;
  std::deque<BatchRequest> pending_ SCWC_GUARDED_BY(mutex_);
  bool stop_ SCWC_GUARDED_BY(mutex_) = false;
  // Serialises the join phase of stop(); distinct from mutex_ because the
  // flusher takes mutex_ while draining.
  Mutex join_mutex_{"serve.batcher.join"};
  std::thread flusher_ SCWC_GUARDED_BY(join_mutex_);

  obs::CounterHandle obs_flush_size_;      ///< flushes triggered by max_batch
  obs::CounterHandle obs_flush_deadline_;  ///< flushes triggered by max_delay
  obs::GaugeHandle obs_queue_depth_;
  obs::HistogramHandle obs_batch_size_;
};

}  // namespace scwc::serve
