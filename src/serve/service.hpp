// ClassificationService — the assembled online-inference front end.
//
// Wires the serve components into one request path:
//
//   ingest_block/submit → AdmissionController (bounded queue, typed
//                         shedding)
//                       → MicroBatcher (deadline/size flush)
//                       → ThreadPool task (one
//                         GuardedClassifier::classify_batch on the
//                         ModelRegistry bundle captured at batch cut)
//                       → resolve(): one verdict builder → VerdictSink
//
// Threading model: callers submit from any thread; the batcher's flusher
// thread cuts batches and hands them to the shared ThreadPool, so flushing
// never blocks on inference and inference parallelises across batches. The
// bundle is captured ONCE per batch, making hot-swap atomic from the
// request's point of view: every window of a batch is answered by the same
// model version, and versions change only between batches.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "obs/request_trace.hpp"
#include "serve/admission.hpp"
#include "serve/health.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/serve_types.hpp"
#include "serve/window_assembler.hpp"

namespace scwc::serve {

class ChaosInjector;  // serve/chaos.hpp
class AuditLogger;    // serve/audit.hpp

/// Full serving configuration. The assembler geometry must match the
/// bundles the registry serves (odd-geometry windows abstain with kShape).
struct ServiceConfig {
  WindowAssemblerConfig assembler;
  MicroBatcherConfig batcher;
  AdmissionConfig admission;
  /// Per-request latency budget; 0 disables deadlines. Requests past their
  /// deadline are resolved with kDeadlineExceeded at whichever of the three
  /// checkpoints (enqueue, batch capture, post-predict) first sees it.
  double default_deadline_s = 0.0;
  /// Breaker thresholds + fallback chain; health.enabled=false (default)
  /// serves exactly as before this layer existed.
  HealthConfig health;
  /// Optional fault injector for chaos tests; must outlive the service.
  /// Also forwarded to the batcher (flusher-stall hook).
  ChaosInjector* chaos = nullptr;
  /// Request tracing: every submission gets a trace id regardless; the
  /// sample_rate decides which requests keep a full phase-timing record
  /// (deterministic in (seed, trace id) — replays sample identically).
  obs::RequestTracerConfig trace;
  /// Optional verdict audit log (one scwc.audit/v1 JSONL record per
  /// verdict). Must outlive the service.
  AuditLogger* audit = nullptr;
};

/// One window emitted by the streaming API, with its pending result.
struct PendingWindow {
  std::int64_t job_id = 0;
  std::size_t start_step = 0;
  std::future<ServeResult> result;
};

/// The online classification service (see file header for the data flow).
class ClassificationService {
 public:
  /// `registry` must outlive the service. `pool` defaults to the global
  /// pool; pass a dedicated one to isolate serving from training load.
  ClassificationService(ModelRegistry& registry, ServiceConfig config,
                        ThreadPool* pool = nullptr);
  ~ClassificationService();

  ClassificationService(const ClassificationService&) = delete;
  ClassificationService& operator=(const ClassificationService&) = delete;

  /// Submits one complete window for classification. The future always
  /// becomes ready: with a shed ServeResult (accepted == false) when
  /// admission rejects, no model is active, or the deadline expires, else
  /// with the guarded prediction once its batch executes. `deadline` is
  /// absolute (time_point::max() = none); without one it derives from
  /// config().default_deadline_s (none when 0).
  [[nodiscard]] std::future<ServeResult> submit(
      std::vector<double> window, std::size_t steps, std::size_t sensors,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// The real submit: resolves through `sink` under `tag` (admission sheds
  /// before it returns), attributed to the source job (-1 = none). A
  /// nonzero trace_id adopts the router's trace identity, so worker-side
  /// phases land under its record; 0 issues a local one.
  void submit_to(VerdictSink& sink, std::uint64_t tag,
                 std::vector<double> window, std::size_t steps,
                 std::size_t sensors,
                 std::chrono::steady_clock::time_point deadline,
                 std::uint64_t trace_id = 0, bool trace_sampled = false,
                 std::int64_t job_id = -1);

  /// Streaming front door: feeds one or more whole sample rows into the
  /// WindowAssembler and submits every window that closed. Returns the
  /// pending results (usually 0 or 1 per row).
  [[nodiscard]] std::vector<PendingWindow> ingest_block(
      std::int64_t job_id, std::span<const double> block);

  /// Ends a job's stream, submitting a final truncated window when the
  /// assembler's partial policy allows one.
  [[nodiscard]] std::vector<PendingWindow> finish_job(std::int64_t job_id);

  /// Stops accepting requests, flushes queued batches, waits for in-flight
  /// inference and every verdict delivery. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const WindowAssembler& assembler() const noexcept {
    return assembler_;
  }
  /// Requests queued in the batcher right now.
  [[nodiscard]] std::size_t pending() const { return batcher_->pending(); }
  /// When the open batch will be cut while traffic is light
  /// (MicroBatcher::light_cut_at).
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
  light_cut_at(std::size_t max_last_cut) const {
    return batcher_->light_cut_at(max_last_cut);
  }

  /// Health introspection; null unless config().health.enabled.
  [[nodiscard]] const HealthMonitor* monitor() const noexcept {
    return monitor_.get();
  }
  [[nodiscard]] const FallbackChain* chain() const noexcept {
    return chain_.get();
  }
  /// Request tracer (ids, sampling verdicts, retained records). Mutable
  /// so callers can drain() sampled records for export after stop().
  [[nodiscard]] obs::RequestTracer& tracer() noexcept { return tracer_; }

 private:
  /// Submits the windows the assembler closed (ingest_block, finish_job),
  /// each attributed to its job under the default deadline.
  [[nodiscard]] std::vector<PendingWindow> submit_closed(
      std::vector<AssembledWindow> closed);
  /// The one verdict builder. Callers fill only what differs between
  /// verdicts (reject reason, prediction, batch fields, queue/batch-wait);
  /// this stamps trace_id, phases.admission_s, phases.total_s and
  /// total_latency_s — all measured to `done`, so total_s ==
  /// admission_s + total_latency_s — writes the trace/audit record and
  /// delivers the verdict to the request's sink. Its caller flushes.
  void resolve(BatchRequest& request, ServeResult result,
               std::chrono::steady_clock::time_point done);
  /// Runs on the flusher thread: evaluates health, routes the batch through
  /// the fallback chain (or straight to the current bundle) and dispatches
  /// it to the pool. During drain (after stop() closed admission) the batch
  /// executes inline instead, so queued requests still get answered rather
  /// than shed.
  void run_batch(std::vector<BatchRequest>&& batch);
  /// Reads the monitor and reacts: bundle faults trigger an automatic
  /// registry rollback, cluster-level SLO violations trip the breaker.
  void evaluate_health(std::chrono::steady_clock::time_point now);
  /// Executes one batch against the routed bundle and resolves every
  /// request. Never lets an exception escape with a request unresolved.
  /// `cut` is the batch-cut timestamp (ends the queue phase; executor
  /// pickup ends the batch-wait phase).
  void execute_batch(const Route& route, std::vector<BatchRequest>& batch,
                     std::chrono::steady_clock::time_point cut);
  /// Resolves every request of an abstain-only (level 2) batch inline.
  void answer_degraded(std::vector<BatchRequest>& batch);
  /// Resolves a request with a typed rejection (and counts it).
  void shed(BatchRequest& request, RejectReason reason);
  /// Sheds every request of `batch`: one resolution loop.
  void shed_all(std::vector<BatchRequest>& batch, RejectReason reason);

  ModelRegistry& registry_;
  const ServiceConfig config_;
  ThreadPool& pool_;
  // Internally synchronized (each owns its mutex); no service-level lock
  // guards them, so guarded-field-coverage is waived field by field.
  WindowAssembler assembler_;    // scwc-lint: allow(guarded-field-coverage)
  AdmissionController admission_;  // scwc-lint: allow(guarded-field-coverage)
  obs::RequestTracer tracer_;    // scwc-lint: allow(guarded-field-coverage)
  // Null unless config_.health.enabled: the SLO sensor and the breaker.
  // The pointers are set once in the constructor and never reseated; the
  // pointees synchronize themselves.
  std::unique_ptr<HealthMonitor> monitor_;  // scwc-lint: allow(guarded-field-coverage)
  std::unique_ptr<FallbackChain> chain_;  // scwc-lint: allow(guarded-field-coverage)
  // unique_ptr: the batcher's runner captures `this`, so it is constructed
  // after the members it uses and destroyed (stopping the flusher) first.
  // Set once in the constructor; the batcher locks internally.
  std::unique_ptr<MicroBatcher> batcher_;  // scwc-lint: allow(guarded-field-coverage)

  // Batches handed to the pool but not finished; stop() waits for zero.
  Mutex inflight_mutex_{"serve.inflight"};
  CondVar inflight_cv_;
  std::size_t inflight_batches_ SCWC_GUARDED_BY(inflight_mutex_) = 0;

  obs::CounterHandle obs_requests_;
  obs::HistogramHandle obs_request_seconds_;
  obs::RollingHistogramHandle obs_request_seconds_rolling_;
  obs::HistogramHandle obs_batch_exec_seconds_;
  obs::HistogramHandle obs_batch_size_;  ///< live requests per cut batch
  obs::CounterHandle obs_deadline_missed_;
  obs::CounterHandle obs_degraded_;
  obs::CounterHandle obs_auto_rollbacks_;
};

}  // namespace scwc::serve
