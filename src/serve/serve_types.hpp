// Shared result types of the online serving subsystem.
//
// Every request that enters scwc_serve leaves exactly one of three ways:
// rejected by admission control (ServeResult::accepted == false, with a
// typed RejectReason), answered by the model, or abstained by the guarded
// inference path (both accepted == true, with the GuardedPrediction
// carrying the label/abstention and its quality evidence). Latency and
// batch metadata ride along so load generators and dashboards never have
// to correlate with a second channel.
#pragma once

#include <cstdint>
#include <future>
#include <string>

#include "obs/request_trace.hpp"
#include "robust/guarded_classifier.hpp"

namespace scwc::serve {

/// Why admission control rejected a request. Each reason maps to a
/// scwc_serve_shed_<reason>_total counter so overload behaviour is visible
/// per cause, not as one lump.
enum class RejectReason {
  kNone = 0,          ///< not rejected
  kQueueFull,         ///< batcher queue at its bound — sustained overload
  kExecutor,          ///< ThreadPool batch queue at its bound (try_submit false)
  kShutdown,          ///< service stopping/stopped
  kNoModel,           ///< registry has no active bundle
  kDeadlineExceeded,  ///< request deadline passed before a fresh answer
  kInternal,          ///< batch executor failed/lost the request (or chaos)
  kShardDown,         ///< cluster router: the shard owning this job died
                      ///< mid-flight or the ring has no live shard left
};

/// Short stable name ("queue_full", "executor", "shutdown", "no_model",
/// "deadline", "internal", "shard_down"; "none" when accepted).
[[nodiscard]] const char* reject_reason_name(RejectReason reason) noexcept;

/// True for shed reasons a client may sensibly retry after backing off:
/// transient overload (kQueueFull, kExecutor), executor loss (kInternal)
/// and a dead shard (kShardDown — the router rehashes the job onto the
/// survivors, so a resubmit lands somewhere alive).
/// Shutdown, missing models and expired deadlines are not retryable.
[[nodiscard]] bool retryable(RejectReason reason) noexcept;

/// Final outcome of one serve request.
struct ServeResult {
  bool accepted = false;            ///< false → shed; prediction is empty
  RejectReason reject_reason = RejectReason::kNone;
  robust::GuardedPrediction prediction;  ///< valid when accepted
  std::string model_version;        ///< bundle that served the batch
  double queue_delay_s = 0.0;       ///< submit → batch cut from the queue
  double total_latency_s = 0.0;     ///< submit → result ready
  std::size_t batch_size = 0;       ///< windows in the serving batch
  /// Which rung of the fallback chain answered: 0 = full pipeline,
  /// 1 = degraded fallback bundle, 2 = abstain-only degraded mode.
  int degrade_level = 0;
  /// Request-scoped trace id (never 0 once the service stamped it) and
  /// the per-phase latency breakdown — DESIGN.md §7. Always filled, not
  /// just for sampled requests; sampling only gates record retention.
  std::uint64_t trace_id = 0;
  std::int64_t job_id = -1;  ///< the request's source job; -1 when none
  obs::RequestPhases phases;
};

/// Where a request's verdict goes, supplied by its submitter. The service
/// calls deliver() once per request, then flush() once per distinct sink
/// at the end of each loop that resolves requests (a batch, a shed), both
/// with no service lock held. A sink outlives the requests that name it.
class VerdictSink {
 public:
  virtual void deliver(std::uint64_t tag, ServeResult result) = 0;
  virtual void flush() = 0;

 protected:
  ~VerdictSink() = default;
};

/// The in-process sink behind every std::future the service hands out: a
/// tag owns one heap promise, which make() creates and deliver() frees.
class PromiseSink final : public VerdictSink {
 public:
  [[nodiscard]] static std::future<ServeResult> make(std::uint64_t& tag);
  void deliver(std::uint64_t tag, ServeResult result) override;
  void flush() override {}
};
inline PromiseSink promise_sink;  ///< stateless: one serves every future

}  // namespace scwc::serve
