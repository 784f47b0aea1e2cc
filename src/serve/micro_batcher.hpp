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
// AdmissionController). Each request names its VerdictSink; whatever
// happens — flush, shutdown, runner failure — the service delivers its
// verdict exactly once.
//
// The flusher thread sleeps until the queue is non-empty, then until the
// flush time: the oldest request's enqueue + max_delay_s, or the earliest
// per-request deadline if sooner. submit() wakes it only when that wait can
// end — the push that makes the queue non-empty, the push that brings it
// to max_batch, or a request whose deadline is earlier than the flush time
// — not once per request; stop() wakes it too. After every wake the flusher
// re-reads the earliest deadline, so a request arriving mid-wait with a
// nearer deadline is shed on time. `scwc_serve_batch_flusher_wakeups_total`
// counts the wakes.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
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
  /// Absolute deadline; time_point::max() (the default) means "none". A
  /// batch is cut by the earliest one at the latest.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  VerdictSink* sink = nullptr;  ///< where the verdict goes, under `tag`
  std::uint64_t tag = 0;
  bool resolved = false;  ///< set once the verdict went to the sink
};

/// Coalesces submitted requests into batches under a deadline/size policy.
class MicroBatcher {
 public:
  /// Receives the cut batch and must resolve every request.
  using BatchRunner = std::function<void(std::vector<BatchRequest>&&)>;

  /// Starts the flusher thread. `runner` is called on the flusher thread,
  /// once per cut batch, never concurrently with itself; requests whose
  /// deadline passed while queued ride in the batch, for the runner's own
  /// deadline policy.
  MicroBatcher(MicroBatcherConfig config, BatchRunner runner);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one request (stamping `enqueued`) and returns true, or
  /// returns false after stop() — the caller then resolves the request
  /// itself with a shutdown rejection.
  [[nodiscard]] bool submit(BatchRequest&& request);

  /// Requests currently queued (instantaneous; admission reads this).
  [[nodiscard]] std::size_t pending() const;

  /// When the open batch will be cut — the oldest request's enqueue +
  /// max_delay_s, or the earliest deadline if sooner — while traffic is
  /// light: the previous cut was a timer cut holding fewer than
  /// min(max_batch / 2, max_last_cut) requests, and the queue is neither
  /// empty nor full. Otherwise, and after stop(), nullopt. A reader that
  /// sleeps until just before this time misses no batch (DESIGN.md §13.3).
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  light_cut_at(std::size_t max_last_cut) const;

  /// Flushes every queued request, then joins the flusher. Idempotent.
  /// After stop() submit() returns false.
  void stop();

  [[nodiscard]] const MicroBatcherConfig& config() const noexcept {
    return config_;
  }

 private:
  void flusher_loop();
  /// Cuts up to max_batch requests off the queue front.
  std::vector<BatchRequest> cut_batch_locked() SCWC_REQUIRES(mutex_);
  /// Earliest pending deadline, or time_point::max().
  [[nodiscard]] std::chrono::steady_clock::time_point min_deadline_locked()
      const SCWC_REQUIRES(mutex_);

  const MicroBatcherConfig config_;
  const std::chrono::steady_clock::duration max_delay_;
  const BatchRunner runner_;

  mutable Mutex mutex_{"serve.batcher.queue"};
  CondVar cv_;
  std::deque<BatchRequest> pending_ SCWC_GUARDED_BY(mutex_);
  /// When the flusher's current timed wait ends: the oldest request's
  /// enqueue + max_delay, or the earliest deadline if sooner. submit()
  /// wakes the flusher for a deadline before it.
  std::chrono::steady_clock::time_point flush_at_ SCWC_GUARDED_BY(mutex_) =
      std::chrono::steady_clock::time_point::max();
  bool stop_ SCWC_GUARDED_BY(mutex_) = false;
  /// Requests the previous cut held if the timer cut it; 0 after a size
  /// cut, a stop cut and before the first cut (light_cut_at's guard).
  std::size_t last_timer_cut_ SCWC_GUARDED_BY(mutex_) = 0;
  // Serialises the join phase of stop(); distinct from mutex_ because the
  // flusher takes mutex_ while draining.
  Mutex join_mutex_{"serve.batcher.join"};
  std::thread flusher_ SCWC_GUARDED_BY(join_mutex_);

  obs::CounterHandle obs_flush_size_;      ///< flushes triggered by max_batch
  obs::CounterHandle obs_flush_deadline_;  ///< flushes triggered by max_delay
  obs::CounterHandle obs_flusher_wakeups_;  ///< returns from either wait
  obs::GaugeHandle obs_queue_depth_;
};

}  // namespace scwc::serve
