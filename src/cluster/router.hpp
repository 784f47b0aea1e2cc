// ShardRouter — the cluster front end.
//
// Consistent-hashes job ids onto worker shards (cluster/hash_ring.hpp) and
// speaks SCWCWIRE to each over loopback TCP. One reader thread per shard
// resolves verdict frames back into the promise registered at submit time;
// per-shard in-flight windows are bounded, and every refusal is a typed
// serve::RejectReason so cluster sheds are indistinguishable in shape from
// single-process ones:
//
//   kQueueFull  — the owning shard already has max_inflight_per_shard
//                 windows outstanding (router-level admission)
//   kShardDown  — the owning shard died (EOF / write failure) or the ring
//                 is empty; the ring is rehashed, so a retry lands on a
//                 survivor (retryable, like every transient shed)
//   kShutdown   — the router itself is stopping
//
// Shard death is detected passively (reader EOF, send failure): the shard
// leaves the ring, its in-flight requests fail with kShardDown, and the
// ring rehashes its 1/N of the key space onto survivors — availability for
// everyone else is untouched, which bench/cluster_throughput measures.
//
// Bundle distribution: push_bundle() streams a serialized bundle to every
// live shard (SwapBegin/Chunk*/Commit) and collects per-shard acks. If any
// shard refuses — corrupt bytes, loader rejection — the router sends
// SwapAbort to every shard that HAD committed, rolling the fleet back to
// version agreement; the report carries each shard's final active version.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/retry.hpp"
#include "serve/serve_types.hpp"

namespace scwc::serve {
class AuditLogger;  // serve/audit.hpp
}

namespace scwc::cluster {

/// Ring points per shard.
inline constexpr std::size_t kVnodesPerShard = 64;
/// How long add_shard waits for a worker to accept (startup grace).
inline constexpr double kConnectDeadlineS = 5.0;
/// Bound on each hello and clock-handshake round trip.
inline constexpr double kHelloTimeoutS = 5.0;
/// How long a bundle push waits for a shard's swap or abort ack.
inline constexpr double kSwapAckTimeoutS = 30.0;
/// Clock-offset handshake rounds per shard (NTP-style: the offset of the
/// minimum-RTT round wins).
inline constexpr std::size_t kClockSyncPings = 5;

struct RouterConfig {
  std::size_t max_inflight_per_shard = 1024;
  /// Forwarded per submit as the worker-side latency budget; 0 = none.
  double default_deadline_s = 0.0;
  /// Router-side request tracing: every routed window keeps the router's
  /// trace id, and sampled requests keep the full 7-phase record
  /// (admission/route/wire_send/worker queue/transform/predict/wire_recv).
  obs::RequestTracerConfig trace;
  /// Optional router-side audit log; records carry shard_id. Must outlive
  /// the router.
  serve::AuditLogger* audit = nullptr;
};

/// Outcome of one shard's part of a bundle push.
struct SwapOutcome {
  std::uint32_t shard_id = 0;
  bool ok = false;                 ///< this shard acked the commit
  bool rolled_back = false;        ///< abort sent (sibling failed)
  std::string active_version;      ///< what the shard serves now
  std::string message;
};

struct SwapReport {
  bool ok = false;  ///< every live shard committed
  std::vector<SwapOutcome> shards;
};

/// Point-in-time view of one shard, from the router's perspective.
struct ShardStatus {
  std::uint32_t shard_id = 0;
  std::uint16_t port = 0;
  bool up = false;
  std::size_t inflight = 0;
  std::size_t window_steps = 0;  ///< geometry from the hello handshake
  std::size_t sensors = 0;
  std::string model_version;  ///< from the hello / last swap ack
  /// Estimated worker-minus-router monotonic clock offset (ns) from the
  /// min-RTT ping handshake; 0 when the handshake is disabled.
  std::int64_t clock_offset_ns = 0;
  std::uint64_t clock_rtt_ns = 0;  ///< RTT of the winning handshake round
};

class ShardRouter {
 public:
  explicit ShardRouter(RouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Connects to a worker on 127.0.0.1:`port` (retrying until the connect
  /// deadline), performs the hello handshake and adds the shard to the
  /// ring. Returns the shard id the worker announced. Throws scwc::Error
  /// when the worker cannot be reached, the handshake fails, or the id is
  /// already connected.
  std::uint32_t add_shard(std::uint16_t port);

  /// Routes one window to the shard owning `job_id`. The future always
  /// becomes ready: with the worker's verdict, or with a typed router shed
  /// (kQueueFull / kShardDown / kShutdown — see file header).
  [[nodiscard]] std::future<serve::ServeResult> submit(
      std::int64_t job_id, std::vector<double> window, std::size_t steps,
      std::size_t sensors);

  /// Blocking client helper: submit + bounded wait, retrying retryable
  /// sheds under `policy` through the shared jittered-backoff core — after
  /// a shard death the retry rehashes onto a survivor. Never call it from
  /// a reader thread.
  [[nodiscard]] serve::ServeResult submit_and_wait(
      std::int64_t job_id, const std::vector<double>& window,
      std::size_t steps, std::size_t sensors,
      const serve::RetryPolicy& policy, Rng& rng);

  /// Streams `bundle_bytes` (a serialized SCWCBNDL, e.g. from
  /// serve::save_bundle) to every live shard and two-phase-commits the
  /// swap; see file header for the rollback protocol.
  SwapReport push_bundle(const std::string& bundle_bytes,
                         const std::string& version);

  /// Pulls one shard's full metrics snapshot over the wire (kMetricsScrape
  /// round-trip; nullopt for dead shards and on timeout).
  [[nodiscard]] std::optional<net::MetricsReplyFrame> fetch_metrics(
      std::uint32_t shard_id, double timeout_s = 5.0);

  /// Starts the background aggregation poller: every `period_s` it pulls
  /// each live shard's metrics and retains the latest reply for
  /// fleet_metrics_text(). Idempotent; stop() joins the thread.
  void start_metrics_poll(double period_s);

  /// Prometheus text exposition of the whole fleet: this process's own
  /// registry first (router gauges/counters, per-shard rolling latency),
  /// then every polled worker series re-exported with a shard="N" label,
  /// plus the router's live per-shard inflight/up gauges. Deterministic
  /// for a fixed set of polled snapshots.
  [[nodiscard]] std::string fleet_metrics_text() const;

  /// JSON health view for the /shards endpoint: one object per shard with
  /// id, port, up, inflight, clock offset and model version.
  [[nodiscard]] obs::Json shards_health_json() const;

  /// The shard `job_id` would be routed to right now.
  [[nodiscard]] std::optional<std::uint32_t> owner(std::int64_t job_id) const;
  [[nodiscard]] std::size_t live_shards() const;
  [[nodiscard]] std::vector<ShardStatus> shards() const;

  /// Router-side request tracer (drain() records after stop() for export).
  [[nodiscard]] obs::RequestTracer& tracer() noexcept { return tracer_; }

  /// Asks every live worker process to exit (kShutdown frame). The workers
  /// acknowledge by closing; the router marks them down as they go.
  void shutdown_workers();

  /// Fails all in-flight requests with kShutdown and closes every
  /// connection. Idempotent; the destructor calls it.
  void stop();

 private:
  /// One request the reader still owes a verdict.
  struct PendingRequest {
    std::promise<serve::ServeResult> promise;
    std::chrono::steady_clock::time_point submitted_at;
    std::uint64_t trace_id = 0;  ///< router-issued, propagated in the submit
    bool trace_sampled = false;
    std::int64_t job_id = -1;
    // Router-side phase stamps, merged with the worker's phase breakdown
    // when the verdict lands. wire_send_s is patched in after the write
    // completes; if the verdict wins that race the send time simply folds
    // into the wire_recv residual.
    double admission_s = 0.0;
    double route_s = 0.0;
    double wire_send_s = 0.0;
  };

  /// Per-shard connection state. The reader thread is the only frame
  /// consumer; submit paths write frames under write_mutex.
  struct ShardConn {
    ShardConn(std::uint32_t id, std::uint16_t p, net::Socket s)
        : shard_id(id), port(p), sock(std::move(s)) {}

    const std::uint32_t shard_id;
    const std::uint16_t port;
    // Written by submitters under write_mutex; shut down cross-thread by
    // stop()/mark_down. The fd lifecycle is the synchronization (shutdown
    // unblocks the reader; close happens after the join).
    net::Socket sock;  // scwc-lint: allow(guarded-field-coverage)
    Mutex write_mutex{"cluster.router.write"};
    Mutex pending_mutex{"cluster.router.pending"};
    std::unordered_map<std::uint64_t, PendingRequest> pending
        SCWC_GUARDED_BY(pending_mutex);
    // Rendezvous for the control-plane replies the reader routes here.
    Mutex control_mutex{"cluster.router.control"};
    CondVar control_cv;
    std::optional<net::SwapAckFrame> swap_ack
        SCWC_GUARDED_BY(control_mutex);
    std::optional<net::MetricsReplyFrame> metrics_reply
        SCWC_GUARDED_BY(control_mutex);
    std::atomic<std::size_t> inflight{0};
    std::atomic<bool> up{true};
    // Hello metadata: written once during add_shard, before the reader
    // spawns or the shard is published — immutable afterwards.
    net::HelloFrame hello;  // scwc-lint: allow(guarded-field-coverage)
    // Min-RTT clock handshake result; written once in add_shard.
    std::int64_t clock_offset_ns = 0;  // scwc-lint: allow(guarded-field-coverage)
    std::uint64_t clock_rtt_ns = 0;  // scwc-lint: allow(guarded-field-coverage)
    // Per-shard rolling request latency, registered in add_shard; the
    // handle is internally synchronized.
    obs::RollingHistogramHandle rolling_latency;  // scwc-lint: allow(guarded-field-coverage)
    // Set once at spawn; joined by stop().
    std::thread reader;  // scwc-lint: allow(guarded-field-coverage)
  };

  void reader_loop(const std::shared_ptr<ShardConn>& conn,
                   net::FrameReader& frames);
  /// Marks a shard dead: out of the ring, pending requests failed with
  /// `reason`, control waiters woken. Safe to call repeatedly.
  void mark_down(ShardConn& conn, serve::RejectReason reason);
  /// A ready future carrying a typed shed (see resolve_shed).
  [[nodiscard]] std::future<serve::ServeResult> shed(
      serve::RejectReason reason, std::uint64_t trace_id, bool sampled,
      std::int64_t job_id, std::optional<std::uint32_t> shard_id,
      std::chrono::steady_clock::time_point started,
      const obs::RequestPhases& phases);
  /// The one router shed builder, shared by submit-time sheds and the
  /// requests orphaned by mark_down: counts the shed per reason, writes the
  /// tracer/audit record and fulfils `promise`. `phases.total_s` is the
  /// verdict's total latency; `shard_id` names the owner if one was chosen.
  void resolve_shed(std::promise<serve::ServeResult>& promise,
                    serve::RejectReason reason, std::uint64_t trace_id,
                    bool sampled, std::int64_t job_id,
                    std::optional<std::uint32_t> shard_id,
                    std::chrono::steady_clock::time_point started,
                    const obs::RequestPhases& phases);
  /// Streams one bundle push to one shard and waits for its ack.
  [[nodiscard]] SwapOutcome push_to_shard(ShardConn& conn,
                                          const std::string& bundle_bytes,
                                          const std::string& version);
  /// Sends SwapAbort and waits for the rollback ack.
  void abort_on_shard(ShardConn& conn, SwapOutcome& outcome,
                      const std::string& reason);
  [[nodiscard]] std::optional<net::SwapAckFrame> wait_swap_ack(
      ShardConn& conn, double timeout_s);
  bool send(ShardConn& conn, net::FrameType type, std::string_view payload);
  /// Min-RTT ping/pong clock handshake on a not-yet-published connection
  /// (the socket is exclusively owned and its io timeout still active).
  void sync_clock(ShardConn& conn, net::FrameReader& frames);
  void metrics_poll_loop(double period_s);

  const RouterConfig config_;

  mutable Mutex ring_mutex_{"cluster.router.ring"};
  HashRing ring_ SCWC_GUARDED_BY(ring_mutex_);
  std::map<std::uint32_t, std::shared_ptr<ShardConn>> conns_
      SCWC_GUARDED_BY(ring_mutex_);
  bool stopped_ SCWC_GUARDED_BY(ring_mutex_) = false;

  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<std::uint64_t> orphan_verdicts_{0};

  // Internally synchronized (own mutex + atomics).
  obs::RequestTracer tracer_;  // scwc-lint: allow(guarded-field-coverage)

  // Latest polled per-shard metrics snapshot, shard id → reply. Kept
  // across shard death so a final scrape survives into fleet_metrics_text.
  mutable Mutex metrics_mutex_{"cluster.router.metrics"};
  std::map<std::uint32_t, net::MetricsReplyFrame> polled_metrics_
      SCWC_GUARDED_BY(metrics_mutex_);
  bool poll_stop_ SCWC_GUARDED_BY(metrics_mutex_) = false;
  CondVar poll_cv_;
  std::thread poll_thread_;  // scwc-lint: allow(guarded-field-coverage)

  obs::CounterHandle obs_submitted_;
  obs::CounterHandle obs_verdicts_;
  obs::CounterHandle obs_shed_queue_full_;
  obs::CounterHandle obs_shed_shard_down_;
  obs::CounterHandle obs_shed_shutdown_;
  obs::CounterHandle obs_shard_deaths_;
  obs::CounterHandle obs_swap_pushes_;
  obs::CounterHandle obs_swap_rollbacks_;
  obs::CounterHandle obs_wire_tx_frames_;
  obs::CounterHandle obs_wire_tx_bytes_;
  obs::CounterHandle obs_wire_rx_frames_;
  obs::CounterHandle obs_wire_rx_bytes_;
  obs::GaugeHandle obs_ring_size_;
  obs::GaugeHandle obs_swap_phase_;
};

}  // namespace scwc::cluster
