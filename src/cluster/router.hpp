// ShardRouter — the cluster front end.
//
// Consistent-hashes job ids onto worker shards (cluster/hash_ring.hpp) and
// speaks SCWCWIRE to each over a local AF_UNIX stream socket, dialled by
// the worker's 16-bit id (net::connect_local). One reader thread per shard
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
// Shard death is detected passively (reader EOF, a send that fails or makes
// no progress for net::kSendTimeoutS — a worker that stopped reading): the
// shard leaves the ring, its in-flight requests fail with kShardDown, and
// the ring rehashes its 1/N of the key space onto survivors — availability
// for everyone else is untouched, which bench/cluster_throughput measures.
//
// Bundle distribution: push_bundle() streams a serialized bundle to every
// live shard (SwapBegin/Chunk*/Commit) and collects per-shard acks. If any
// shard refuses — corrupt bytes, loader rejection — the router sends
// SwapAbort to every shard that HAD committed, rolling the fleet back to
// version agreement; the report carries each shard's final active version.
//
// Control plane: every exchange that expects a reply (swap commit, abort,
// metrics pull) is one round trip — send, then wait for the reply type,
// the deadline or shard death — serialised per shard by the call mutex.
// The router runs no thread but the readers: fleet metrics are pulled from
// the workers when fleet_metrics_text() renders them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
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
/// Bound shared by all the metrics pulls of one fleet_metrics_text(): a
/// shard that has not answered by then renders its last reply.
inline constexpr double kFleetPullTimeoutS = 1.0;
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
  std::uint16_t port = 0;  ///< the local socket id add_shard dialled
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

  /// Connects to the worker listening on local socket id `port`
  /// (ClusterWorker::port(), scwc_worker --port; retrying until the connect
  /// deadline), performs the hello handshake and adds the shard to the
  /// ring. Returns the shard id the worker announced. Throws scwc::Error
  /// when the worker cannot be reached, the handshake fails, or the id is
  /// already connected.
  std::uint32_t add_shard(std::uint16_t port);

  /// Routes one window to the shard owning `job_id`. The window is read
  /// once, straight into its frame. The future always becomes ready: with
  /// the worker's verdict, or with a typed router shed (kQueueFull /
  /// kShardDown / kShutdown — see file header).
  [[nodiscard]] std::future<serve::ServeResult> submit(
      std::int64_t job_id, std::span<const double> window, std::size_t steps,
      std::size_t sensors);

  /// Blocking client helper: submit + bounded wait, retrying retryable
  /// sheds under `policy` through the shared jittered-backoff core — after
  /// a shard death the retry rehashes onto a survivor. Never call it from
  /// a reader thread.
  [[nodiscard]] serve::ServeResult submit_and_wait(
      std::int64_t job_id, std::span<const double> window,
      std::size_t steps, std::size_t sensors,
      const serve::RetryPolicy& policy, Rng& rng);

  /// Streams `bundle_bytes` (a serialized SCWCBNDL, e.g. from
  /// serve::save_bundle) to every live shard and two-phase-commits the
  /// swap; see file header for the rollback protocol.
  SwapReport push_bundle(const std::string& bundle_bytes,
                         const std::string& version);

  /// Pulls one shard's full metrics snapshot over the wire (kMetricsScrape
  /// round trip; nullopt for dead shards and on timeout). The reply is
  /// kept as the shard's latest for fleet_metrics_text().
  [[nodiscard]] std::optional<net::MetricsReplyFrame> fetch_metrics(
      std::uint32_t shard_id, double timeout_s = 5.0);

  /// Prometheus text exposition of the whole fleet. Pulls every live shard
  /// first, all within kFleetPullTimeoutS; a shard that is dead, late or
  /// busy with a bundle push renders its last reply. A shard that stopped
  /// reading holds its pull for up to net::kSendTimeoutS instead, one such
  /// shard after another (DESIGN.md §13.6). Then renders this
  /// process's own registry (router gauges/counters, per-shard rolling
  /// latency), the router's live per-shard up/inflight/clock-offset view,
  /// and every worker series re-exported with a shard="N" label.
  [[nodiscard]] std::string fleet_metrics_text();

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
  /// acknowledge by closing and leave the ring as kShutdown, not deaths.
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
  /// consumer; submit paths write frames under write_mutex. In-flight
  /// windows are the entries of `pending`. The socket's receive is
  /// unbounded and its sends are bounded by net::kSendTimeoutS.
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
    // Held by a round trip from its send through its wait, so one reply
    // slot serves every control exchange.
    TimedMutex call_mutex{"cluster.router.call"};
    // The reader drops each control frame into `reply`, undecoded.
    Mutex control_mutex{"cluster.router.control"};
    CondVar control_cv;
    std::optional<net::Frame> reply SCWC_GUARDED_BY(control_mutex);
    // The last metrics pull's reply; kept across shard death.
    std::optional<net::MetricsReplyFrame> latest_metrics
        SCWC_GUARDED_BY(control_mutex);
    std::atomic<bool> up{true};
    std::atomic<bool> exiting{false};  // shutdown_workers() asked it to
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

  /// Every connection (or only the up ones), copied out under the ring
  /// lock.
  [[nodiscard]] std::vector<std::shared_ptr<ShardConn>> connections(
      bool up_only) const;
  void reader_loop(const std::shared_ptr<ShardConn>& conn,
                   net::FrameReader& frames);
  /// Marks a shard dead: out of the ring, pending requests failed with
  /// `reason`, round trips woken. Safe to call repeatedly.
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
  /// One metrics round trip, given up if the call mutex is not free by
  /// `deadline`; a reply becomes the shard's latest_metrics.
  [[nodiscard]] std::optional<net::MetricsReplyFrame> pull_metrics(
      ShardConn& conn, std::chrono::steady_clock::time_point deadline);
  /// Sends one frame, then waits until a `reply_type` frame arrives,
  /// `deadline` passes (nullopt) or the shard goes down (nullopt).
  [[nodiscard]] std::optional<net::Frame> round_trip(
      ShardConn& conn, net::FrameType type, std::string_view payload,
      net::FrameType reply_type,
      std::chrono::steady_clock::time_point deadline)
      SCWC_REQUIRES(conn.call_mutex);
  /// Frames `payload` and sends it (see the `frame` overload).
  bool send(ShardConn& conn, net::FrameType type, std::string_view payload);
  /// Writes one encoded frame. False when the write fails (peer gone, shard
  /// already down, or no progress for net::kSendTimeoutS); a failure shuts
  /// the socket, so the senders queued behind it fail at once, and marks
  /// the shard down.
  bool send(ShardConn& conn, std::string_view frame);
  /// Min-RTT ping/pong clock handshake on a not-yet-published connection
  /// (the socket is exclusively owned and its io timeout still active).
  void sync_clock(ShardConn& conn, net::FrameReader& frames);

  const RouterConfig config_;

  mutable Mutex ring_mutex_{"cluster.router.ring"};
  HashRing ring_ SCWC_GUARDED_BY(ring_mutex_);
  std::map<std::uint32_t, std::shared_ptr<ShardConn>> conns_
      SCWC_GUARDED_BY(ring_mutex_);
  bool stopped_ SCWC_GUARDED_BY(ring_mutex_) = false;

  std::atomic<std::uint64_t> next_request_id_{1};

  // Internally synchronized (own mutex + atomics).
  obs::RequestTracer tracer_;  // scwc-lint: allow(guarded-field-coverage)

  obs::CounterHandle obs_submitted_;
  obs::CounterHandle obs_verdicts_;
  obs::CounterHandle obs_orphan_verdicts_;
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
