#include "cluster/router.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "net/wire.hpp"
#include "obs/export.hpp"
#include "obs/request_trace.hpp"
#include "serve/audit.hpp"

namespace scwc::cluster {

namespace {

/// Chunk size for bundle streaming: large enough to amortise framing,
/// comfortably under the wire cap.
constexpr std::size_t kPushChunkBytes = 1ULL << 18;  // 256 KiB

std::chrono::steady_clock::time_point deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Decodes a swap/abort ack; nullopt (and `message` set) when the shard
/// went quiet, died, or sent a malformed ack.
std::optional<net::SwapAckFrame> decode_ack(
    const std::optional<net::Frame>& frame, bool up, std::string& message) {
  if (!frame.has_value()) {
    message = up ? "swap ack timeout" : "shard down";
    return std::nullopt;
  }
  try {
    return net::decode_swap_ack(frame->payload);
  } catch (const scwc::Error& e) {
    message = e.what();
    return std::nullopt;
  }
}

}  // namespace

ShardRouter::ShardRouter(RouterConfig config)
    : config_(config), ring_(kVnodesPerShard), tracer_(config.trace) {
  auto& reg = obs::MetricsRegistry::global();
  obs_submitted_ = reg.counter("scwc_cluster_submitted_total");
  obs_verdicts_ = reg.counter("scwc_cluster_verdicts_total");
  obs_orphan_verdicts_ = reg.counter("scwc_cluster_orphan_verdicts_total");
  obs_shed_queue_full_ = reg.counter("scwc_cluster_shed_queue_full_total");
  obs_shed_shard_down_ = reg.counter("scwc_cluster_shed_shard_down_total");
  obs_shed_shutdown_ = reg.counter("scwc_cluster_shed_shutdown_total");
  obs_shard_deaths_ = reg.counter("scwc_cluster_shard_deaths_total");
  obs_swap_pushes_ = reg.counter("scwc_cluster_swap_pushes_total");
  obs_swap_rollbacks_ = reg.counter("scwc_cluster_swap_rollbacks_total");
  obs_wire_tx_frames_ = reg.counter("scwc_cluster_wire_tx_frames_total");
  obs_wire_tx_bytes_ = reg.counter("scwc_cluster_wire_tx_bytes_total");
  obs_wire_rx_frames_ = reg.counter("scwc_cluster_wire_rx_frames_total");
  obs_wire_rx_bytes_ = reg.counter("scwc_cluster_wire_rx_bytes_total");
  obs_ring_size_ = reg.gauge("scwc_cluster_ring_size");
  obs_swap_phase_ = reg.gauge("scwc_cluster_swap_phase");
}

ShardRouter::~ShardRouter() { stop(); }

std::uint32_t ShardRouter::add_shard(std::uint16_t port) {
  net::Socket sock = net::connect_local(port, kConnectDeadlineS);
  SCWC_REQUIRE(sock.valid(), "router: cannot connect to worker on local id " +
                                 std::to_string(port));
  // Bound the handshake; afterwards the reader's receive is unbounded — a
  // reader-side receive timeout would be indistinguishable from EOF — and
  // every send keeps the net::kSendTimeoutS bound.
  sock.set_io_timeout(kHelloTimeoutS);
  // The connection's one receive buffer: it serves the handshake, then
  // moves into the reader thread with whatever it already holds.
  net::FrameReader frames;
  std::optional<net::Frame> frame = frames.next(sock);
  SCWC_REQUIRE(frame.has_value() && frame->type == net::FrameType::kHello,
               "router: worker on local id " + std::to_string(port) +
                   " did not complete the hello handshake");
  const net::HelloFrame hello = net::decode_hello(frame->payload);

  auto conn = std::make_shared<ShardConn>(hello.shard_id, port,
                                          std::move(sock));
  conn->hello = hello;
  // Clock handshake while the socket is still exclusively ours and the
  // hello io timeout still bounds each round trip.
  sync_clock(*conn, frames);
  conn->sock.set_recv_timeout(0);
  conn->sock.set_send_timeout(net::kSendTimeoutS);
  conn->rolling_latency = obs::MetricsRegistry::global().rolling_histogram(
      "scwc_cluster_shard" + std::to_string(hello.shard_id) +
      "_request_seconds");
  {
    LockGuard lock(ring_mutex_);
    SCWC_REQUIRE(!stopped_, "router: already stopped");
    SCWC_REQUIRE(conns_.find(hello.shard_id) == conns_.end(),
                 "router: shard " + std::to_string(hello.shard_id) +
                     " is already connected");
    ring_.add_shard(hello.shard_id);
    conns_.emplace(hello.shard_id, conn);
    obs_ring_size_.set(static_cast<double>(ring_.shard_count()));
  }
  conn->reader =
      std::thread([this, conn, frames = std::move(frames)]() mutable {
        reader_loop(conn, frames);
      });
  SCWC_LOG_INFO("cluster router: shard "
                << hello.shard_id << " joined from local id " << port
                << " (model '" << hello.model_version << "', "
                << hello.window_steps << "×" << hello.sensors
                << ", clock offset " << conn->clock_offset_ns << "ns)");
  return hello.shard_id;
}

void ShardRouter::sync_clock(ShardConn& conn, net::FrameReader& frames) {
  // NTP-style minimum-RTT filter: of N ping/pong rounds, trust the one
  // with the smallest round trip — queueing delay only ever inflates the
  // estimate. offset = worker_clock − midpoint(send, recv), so adding the
  // offset to a router stamp lands it on the worker's steady clock.
  bool have = false;
  for (std::size_t round = 0; round < kClockSyncPings; ++round) {
    net::PingFrame ping;
    ping.nonce = round + 1;
    const std::uint64_t t0 = obs::steady_ns();
    if (!net::write_frame(conn.sock, net::FrameType::kPing,
                          net::encode_ping(ping))) {
      break;
    }
    std::optional<net::Frame> reply = frames.next(conn.sock);
    const std::uint64_t t1 = obs::steady_ns();
    if (!reply.has_value() || reply->type != net::FrameType::kPong) break;
    const net::PongFrame pong = net::decode_pong(reply->payload);
    if (pong.nonce != ping.nonce || pong.t_mono_ns == 0) break;
    const std::uint64_t rtt = t1 > t0 ? t1 - t0 : 0;
    if (!have || rtt < conn.clock_rtt_ns) {
      const std::uint64_t mid = t0 + (t1 - t0) / 2;
      conn.clock_offset_ns = static_cast<std::int64_t>(pong.t_mono_ns) -
                             static_cast<std::int64_t>(mid);
      conn.clock_rtt_ns = rtt;
      have = true;
    }
  }
}

std::future<serve::ServeResult> ShardRouter::submit(
    std::int64_t job_id, std::span<const double> window, std::size_t steps,
    std::size_t sensors) {
  obs_submitted_.inc();
  const auto t_entry = std::chrono::steady_clock::now();
  // Stamp the trace identity before routing so even sheds carry an id;
  // the same id travels in the submit frame and comes back in the audit
  // log, which is what lets scwc_tracemerge join the two processes.
  const std::uint64_t trace_id = tracer_.begin_trace();
  const bool sampled = tracer_.sampled(trace_id);

  std::shared_ptr<ShardConn> conn;
  bool stopped = false;
  {
    LockGuard lock(ring_mutex_);
    stopped = stopped_;
    if (!stopped) {
      if (const auto owner_id = ring_.owner(job_id)) {
        const auto it = conns_.find(*owner_id);
        if (it != conns_.end()) conn = it->second;
      }
    }
  }
  const auto t_routed = std::chrono::steady_clock::now();
  obs::RequestPhases phases;
  phases.route_s = obs::seconds_between(t_entry, t_routed);
  phases.total_s = phases.route_s;
  if (stopped) {
    return shed(serve::RejectReason::kShutdown, trace_id, sampled, job_id,
                std::nullopt, t_entry, phases);
  }
  if (conn == nullptr || !conn->up.load()) {
    return shed(serve::RejectReason::kShardDown, trace_id, sampled, job_id,
                conn != nullptr
                    ? std::optional<std::uint32_t>(conn->shard_id)
                    : std::nullopt,
                t_entry, phases);
  }

  const std::uint64_t request_id = next_request_id_.fetch_add(1);
  std::future<serve::ServeResult> future;
  {
    LockGuard lock(conn->pending_mutex);
    // Bounded in-flight per shard: router-level admission control.
    if (conn->pending.size() < config_.max_inflight_per_shard) {
      PendingRequest& req = conn->pending[request_id];
      req.submitted_at = t_entry;
      req.trace_id = trace_id;
      req.trace_sampled = sampled;
      req.job_id = job_id;
      req.route_s = phases.route_s;
      req.admission_s =
          obs::seconds_between(t_routed, std::chrono::steady_clock::now());
      future = req.promise.get_future();
    }
  }
  if (!future.valid()) {
    const auto now = std::chrono::steady_clock::now();
    phases.admission_s = obs::seconds_between(t_routed, now);
    phases.total_s = obs::seconds_between(t_entry, now);
    return shed(serve::RejectReason::kQueueFull, trace_id, sampled, job_id,
                conn->shard_id, t_entry, phases);
  }

  net::SubmitWindowView frame;
  frame.request_id = request_id;
  frame.job_id = job_id;
  frame.deadline_ns =
      config_.default_deadline_s > 0.0
          ? static_cast<std::uint64_t>(config_.default_deadline_s * 1e9)
          : 0;
  frame.steps = static_cast<std::uint32_t>(steps);
  frame.sensors = static_cast<std::uint32_t>(sensors);
  frame.values = window;
  frame.trace_id = trace_id;
  frame.trace_sampled = sampled;

  const auto t_send = std::chrono::steady_clock::now();
  if (!send(*conn, net::encode_submit_window_frame(frame))) {
    // The failed send marked the shard down, which resolved this request,
    // still pending, as a typed shed.
    return future;
  }
  // Patch the measured send time into the pending entry. If the verdict
  // already raced past us the entry is gone and the send time simply folds
  // into the wire_recv residual — benign either way.
  const double wire_send_s =
      obs::seconds_between(t_send, std::chrono::steady_clock::now());
  {
    LockGuard lock(conn->pending_mutex);
    const auto it = conn->pending.find(request_id);
    if (it != conn->pending.end()) it->second.wire_send_s = wire_send_s;
  }
  return future;
}

serve::ServeResult ShardRouter::submit_and_wait(
    std::int64_t job_id, std::span<const double> window, std::size_t steps,
    std::size_t sensors, const serve::RetryPolicy& policy, Rng& rng) {
  return serve::retry_with_backoff(
      policy, rng,
      [&](double wait_s) -> std::optional<serve::ServeResult> {
        std::future<serve::ServeResult> future =
            submit(job_id, window, steps, sensors);
        return serve::get_within(future, wait_s);
      });
}

SwapReport ShardRouter::push_bundle(const std::string& bundle_bytes,
                                    const std::string& version) {
  obs_swap_pushes_.inc();
  obs_swap_phase_.set(1.0);  // 1 = pushing
  const std::vector<std::shared_ptr<ShardConn>> targets = connections(true);
  SwapReport report;
  report.ok = !targets.empty();
  for (const auto& conn : targets) {
    SwapOutcome outcome = push_to_shard(*conn, bundle_bytes, version);
    report.ok = report.ok && outcome.ok;
    report.shards.push_back(std::move(outcome));
  }
  if (!report.ok && !report.shards.empty()) {
    // Two-phase outcome: some shard refused (corrupt bytes, loader nack,
    // death mid-push). Roll every shard that DID commit back one
    // activation so the fleet stays version-consistent.
    obs_swap_phase_.set(2.0);  // 2 = rolling back
    for (std::size_t i = 0; i < report.shards.size(); ++i) {
      if (!report.shards[i].ok) continue;
      abort_on_shard(*targets[i], report.shards[i],
                     "sibling shard rejected bundle '" + version + "'");
    }
    obs_swap_rollbacks_.inc();
    SCWC_LOG_WARN("cluster router: bundle '"
                  << version << "' rejected; rolled back "
                  << std::count_if(report.shards.begin(), report.shards.end(),
                                   [](const SwapOutcome& o) {
                                     return o.rolled_back;
                                   })
                  << " shard(s)");
  }
  obs_swap_phase_.set(0.0);  // 0 = idle
  return report;
}

std::optional<net::MetricsReplyFrame> ShardRouter::fetch_metrics(
    std::uint32_t shard_id, double timeout_s) {
  std::shared_ptr<ShardConn> conn;
  {
    LockGuard lock(ring_mutex_);
    const auto it = conns_.find(shard_id);
    if (it != conns_.end()) conn = it->second;
  }
  if (conn == nullptr) return std::nullopt;
  return pull_metrics(*conn, deadline_after(timeout_s));
}

std::optional<net::MetricsReplyFrame> ShardRouter::pull_metrics(
    ShardConn& conn, std::chrono::steady_clock::time_point deadline) {
  // A bundle push holds the call mutex until its ack (kSwapAckTimeoutS);
  // a pull gives up at its own deadline instead of queueing behind it.
  if (!conn.up.load()) return std::nullopt;
  if (!conn.call_mutex.try_lock_until(deadline)) return std::nullopt;
  LockGuard call(conn.call_mutex, std::adopt_lock);
  const std::optional<net::Frame> frame =
      round_trip(conn, net::FrameType::kMetricsScrape, "",
                 net::FrameType::kMetricsReply, deadline);
  if (!frame.has_value()) return std::nullopt;
  net::MetricsReplyFrame reply;
  try {
    reply = net::decode_metrics_reply(frame->payload);
  } catch (const scwc::Error& e) {
    SCWC_LOG_WARN("cluster router: bad metrics reply from shard "
                  << conn.shard_id << ": " << e.what());
    return std::nullopt;
  }
  LockGuard lock(conn.control_mutex);
  conn.latest_metrics = reply;
  return reply;
}

std::string ShardRouter::fleet_metrics_text() {
  const auto deadline = deadline_after(kFleetPullTimeoutS);
  for (const auto& conn : connections(true)) {
    (void)pull_metrics(*conn, deadline);
  }
  // The router's own registry first (includes the per-shard rolling
  // latency histograms registered in add_shard)…
  std::string out =
      obs::to_prometheus(obs::MetricsRegistry::global().snapshot());
  std::ostringstream os;
  // …then the live per-shard view the router alone can render…
  for (const ShardStatus& s : shards()) {
    const std::string label =
        "{shard=\"" + obs::sanitize_label_value(std::to_string(s.shard_id)) +
        "\"}";
    os << "scwc_cluster_shard_up" << label << ' ' << (s.up ? 1 : 0) << '\n';
    os << "scwc_cluster_shard_inflight" << label << ' ' << s.inflight << '\n';
    os << "scwc_cluster_shard_clock_offset_ns" << label << ' '
       << s.clock_offset_ns << '\n';
  }
  // …then every worker series from each shard's latest pull, re-exported
  // under its shard label. Shards render in id order, so the exposition
  // is deterministic for a fixed set of replies.
  for (const auto& conn : connections(false)) {
    std::optional<net::MetricsReplyFrame> latest;
    {
      LockGuard lock(conn->control_mutex);
      latest = conn->latest_metrics;
    }
    if (!latest.has_value()) continue;
    const net::MetricsReplyFrame& reply = *latest;
    const std::string shard =
        obs::sanitize_label_value(std::to_string(conn->shard_id));
    const std::string label = "{shard=\"" + shard + "\"}";
    for (const auto& [name, value] : reply.counters) {
      os << obs::sanitize_metric_name(name) << label << ' ' << value << '\n';
    }
    for (const auto& [name, value] : reply.gauges) {
      os << obs::sanitize_metric_name(name) << label << ' '
         << obs::prometheus_value(value) << '\n';
    }
    for (const net::MetricsRollingEntry& e : reply.rolling) {
      const std::string name = obs::sanitize_metric_name(e.name);
      os << name << "_count" << label << ' ' << e.count << '\n';
      os << name << "{shard=\"" << shard << "\",quantile=\"0.5\"} "
         << obs::prometheus_value(e.p50) << '\n';
      os << name << "{shard=\"" << shard << "\",quantile=\"0.9\"} "
         << obs::prometheus_value(e.p90) << '\n';
      os << name << "{shard=\"" << shard << "\",quantile=\"0.99\"} "
         << obs::prometheus_value(e.p99) << '\n';
    }
  }
  out += os.str();
  return out;
}

obs::Json ShardRouter::shards_health_json() const {
  obs::Json::Array arr;
  for (const ShardStatus& s : shards()) {
    obs::Json::Object o;
    o.emplace("shard_id", obs::Json(static_cast<double>(s.shard_id)));
    o.emplace("port", obs::Json(static_cast<double>(s.port)));
    o.emplace("up", obs::Json(s.up));
    o.emplace("inflight", obs::Json(static_cast<double>(s.inflight)));
    o.emplace("model_version", obs::Json(s.model_version));
    o.emplace("clock_offset_ns",
              obs::Json(static_cast<double>(s.clock_offset_ns)));
    o.emplace("clock_rtt_ns",
              obs::Json(static_cast<double>(s.clock_rtt_ns)));
    arr.push_back(obs::Json(std::move(o)));
  }
  obs::Json::Object root;
  root.emplace("shards", obs::Json(std::move(arr)));
  return obs::Json(std::move(root));
}

std::optional<std::uint32_t> ShardRouter::owner(std::int64_t job_id) const {
  LockGuard lock(ring_mutex_);
  return ring_.owner(job_id);
}

std::size_t ShardRouter::live_shards() const {
  LockGuard lock(ring_mutex_);
  return ring_.shard_count();
}

std::vector<ShardStatus> ShardRouter::shards() const {
  std::vector<ShardStatus> out;
  for (const auto& conn : connections(false)) {
    ShardStatus status;
    status.shard_id = conn->shard_id;
    status.port = conn->port;
    status.up = conn->up.load();
    {
      LockGuard lock(conn->pending_mutex);
      status.inflight = conn->pending.size();
    }
    status.window_steps = conn->hello.window_steps;
    status.sensors = conn->hello.sensors;
    status.model_version = conn->hello.model_version;
    status.clock_offset_ns = conn->clock_offset_ns;
    status.clock_rtt_ns = conn->clock_rtt_ns;
    out.push_back(std::move(status));
  }
  return out;
}

void ShardRouter::shutdown_workers() {
  for (const auto& conn : connections(true)) {
    conn->exiting.store(true);
    (void)send(*conn, net::FrameType::kShutdown, "");
  }
}

std::vector<std::shared_ptr<ShardRouter::ShardConn>> ShardRouter::connections(
    bool up_only) const {
  std::vector<std::shared_ptr<ShardConn>> out;
  LockGuard lock(ring_mutex_);
  for (const auto& [id, conn] : conns_) {
    if (!up_only || conn->up.load()) out.push_back(conn);
  }
  return out;
}

void ShardRouter::stop() {
  std::map<std::uint32_t, std::shared_ptr<ShardConn>> conns;
  {
    LockGuard lock(ring_mutex_);
    if (stopped_) return;
    stopped_ = true;
    conns = conns_;
  }
  for (const auto& [id, conn] : conns) {
    mark_down(*conn, serve::RejectReason::kShutdown);
  }
  for (const auto& [id, conn] : conns) {
    if (conn->reader.joinable()) conn->reader.join();
    conn->sock.close();
  }
}

void ShardRouter::reader_loop(const std::shared_ptr<ShardConn>& conn,
                              net::FrameReader& frames) {
  set_thread_name("rd-shard" + std::to_string(conn->shard_id));
  try {
    while (std::optional<net::Frame> frame = frames.next(conn->sock)) {
      obs_wire_rx_frames_.inc();
      obs_wire_rx_bytes_.inc(frame->payload.size() + net::kHeaderBytes);
      switch (frame->type) {
        case net::FrameType::kVerdict: {
          const net::VerdictFrame v = net::decode_verdict(frame->payload);
          PendingRequest req;
          bool found = false;
          {
            LockGuard lock(conn->pending_mutex);
            const auto it = conn->pending.find(v.request_id);
            if (it != conn->pending.end()) {
              req = std::move(it->second);
              conn->pending.erase(it);
              found = true;
            }
          }
          if (!found) {
            // A verdict for a request we already failed (shard marked
            // down, router stopping) lands here.
            obs_orphan_verdicts_.inc();
            break;
          }
          obs_verdicts_.inc();

          serve::ServeResult result;
          result.accepted = v.accepted;
          result.reject_reason =
              static_cast<serve::RejectReason>(v.reject_reason);
          result.prediction.label = v.label;
          result.prediction.abstained = v.abstained;
          result.prediction.reason =
              static_cast<robust::AbstainReason>(v.abstain_reason);
          result.prediction.report.steps = conn->hello.window_steps;
          result.prediction.report.sensors = conn->hello.sensors;
          result.prediction.report.missing_values = v.missing_values;
          result.prediction.report.repaired_values = v.repaired_values;
          result.model_version = v.model_version;
          result.batch_size = v.batch_size;
          result.degrade_level = v.degrade_level;
          // The router's identity wins; the worker adopted it from the
          // submit frame, so the two ids agree anyway.
          result.trace_id = req.trace_id;
          result.total_latency_s = obs::seconds_between(
              req.submitted_at, std::chrono::steady_clock::now());
          // Repurposed at the router tier: time NOT spent inside the
          // worker, i.e. wire + router overhead.
          result.queue_delay_s =
              std::max(0.0, result.total_latency_s - v.worker_latency_s);

          // Full cross-process phase breakdown: router-side stamps, the
          // worker's own split, and the wire residual.
          result.phases.admission_s = req.admission_s;
          result.phases.route_s = req.route_s;
          result.phases.wire_send_s = req.wire_send_s;
          result.phases.queue_s = v.worker_queue_s;
          result.phases.transform_s = v.worker_transform_s;
          result.phases.predict_s = v.worker_predict_s;
          result.phases.total_s = result.total_latency_s;
          result.phases.wire_recv_s = std::max(
              0.0, result.total_latency_s - req.admission_s - req.route_s -
                       req.wire_send_s - v.worker_latency_s);

          conn->rolling_latency.observe(result.total_latency_s);
          serve::record_verdict(tracer_, config_.audit, req.trace_id,
                                req.trace_sampled, req.job_id,
                                req.submitted_at, result, conn->shard_id,
                                std::nullopt);
          req.promise.set_value(std::move(result));
          break;
        }
        case net::FrameType::kSwapAck:
        case net::FrameType::kMetricsReply: {
          // A control reply, left undecoded for the waiting round trip.
          {
            LockGuard lock(conn->control_mutex);
            conn->reply = std::move(*frame);
          }
          conn->control_cv.notify_all();
          break;
        }
        case net::FrameType::kError: {
          const net::ErrorFrame err = net::decode_error(frame->payload);
          SCWC_LOG_WARN("cluster router: shard "
                        << conn->shard_id << " reported: " << err.message);
          break;
        }
        default:
          break;  // kPong and anything else valid-but-unexpected
      }
    }
  } catch (const scwc::Error& e) {
    SCWC_LOG_WARN("cluster router: protocol error from shard "
                  << conn->shard_id << ": " << e.what());
  }
  mark_down(*conn, serve::RejectReason::kShardDown);
}

void ShardRouter::mark_down(ShardConn& conn, serve::RejectReason reason) {
  // A worker told to exit closing its end is no shard death.
  if (conn.exiting.load()) reason = serve::RejectReason::kShutdown;
  const bool first = conn.up.exchange(false);
  if (first) {
    {
      LockGuard lock(ring_mutex_);
      ring_.remove_shard(conn.shard_id);
      obs_ring_size_.set(static_cast<double>(ring_.shard_count()));
    }
    if (reason == serve::RejectReason::kShardDown) {
      obs_shard_deaths_.inc();
      SCWC_LOG_WARN("cluster router: shard "
                    << conn.shard_id
                    << " down — ring rehashed onto survivors");
    }
  }
  conn.sock.shutdown_now();
  // Fail everything in flight with the typed reason; late registrations
  // from racing submitters fail at their send() and clean up themselves.
  std::unordered_map<std::uint64_t, PendingRequest> orphaned;
  {
    LockGuard lock(conn.pending_mutex);
    orphaned.swap(conn.pending);
  }
  for (auto& [id, req] : orphaned) {
    obs::RequestPhases phases;
    phases.admission_s = req.admission_s;
    phases.route_s = req.route_s;
    phases.wire_send_s = req.wire_send_s;
    phases.total_s = obs::seconds_between(req.submitted_at,
                                          std::chrono::steady_clock::now());
    resolve_shed(req.promise, reason, req.trace_id, req.trace_sampled,
                 req.job_id, conn.shard_id, req.submitted_at, phases);
  }
  {
    // Empty on purpose: a round trip that saw the shard up is either not
    // yet checking or already parked in its wait, so the notify reaches it.
    LockGuard lock(conn.control_mutex);
  }
  conn.control_cv.notify_all();
}

std::future<serve::ServeResult> ShardRouter::shed(
    serve::RejectReason reason, std::uint64_t trace_id, bool sampled,
    std::int64_t job_id, std::optional<std::uint32_t> shard_id,
    std::chrono::steady_clock::time_point started,
    const obs::RequestPhases& phases) {
  std::promise<serve::ServeResult> promise;
  std::future<serve::ServeResult> future = promise.get_future();
  resolve_shed(promise, reason, trace_id, sampled, job_id, shard_id, started,
               phases);
  return future;
}

void ShardRouter::resolve_shed(std::promise<serve::ServeResult>& promise,
                               serve::RejectReason reason,
                               std::uint64_t trace_id, bool sampled,
                               std::int64_t job_id,
                               std::optional<std::uint32_t> shard_id,
                               std::chrono::steady_clock::time_point started,
                               const obs::RequestPhases& phases) {
  switch (reason) {
    case serve::RejectReason::kQueueFull:
      obs_shed_queue_full_.inc();
      break;
    case serve::RejectReason::kShardDown:
      obs_shed_shard_down_.inc();
      break;
    case serve::RejectReason::kShutdown:
      obs_shed_shutdown_.inc();
      break;
    default:
      break;
  }
  serve::ServeResult result;
  result.accepted = false;
  result.reject_reason = reason;
  result.trace_id = trace_id;
  result.phases = phases;
  result.total_latency_s = phases.total_s;
  serve::record_verdict(tracer_, config_.audit, trace_id, sampled, job_id,
                        started, result, shard_id, std::nullopt);
  promise.set_value(std::move(result));
}

SwapOutcome ShardRouter::push_to_shard(ShardConn& conn,
                                       const std::string& bundle_bytes,
                                       const std::string& version) {
  SwapOutcome outcome;
  outcome.shard_id = conn.shard_id;
  LockGuard call(conn.call_mutex);
  net::SwapBeginFrame begin;
  begin.version = version;
  begin.total_bytes = bundle_bytes.size();
  if (!send(conn, net::FrameType::kSwapBegin,
            net::encode_swap_begin(begin))) {
    outcome.message = "send failed (shard gone?)";
    return outcome;
  }
  for (std::size_t offset = 0; offset < bundle_bytes.size();
       offset += kPushChunkBytes) {
    net::SwapChunkFrame chunk;
    chunk.offset = offset;
    chunk.bytes = bundle_bytes.substr(
        offset, std::min(kPushChunkBytes, bundle_bytes.size() - offset));
    if (!send(conn, net::FrameType::kSwapChunk,
              net::encode_swap_chunk(chunk))) {
      outcome.message = "send failed mid-stream";
      return outcome;
    }
  }
  net::SwapCommitFrame commit;
  commit.crc32 = crc32(bundle_bytes);
  const std::optional<net::SwapAckFrame> ack = decode_ack(
      round_trip(conn, net::FrameType::kSwapCommit,
                 net::encode_swap_commit(commit), net::FrameType::kSwapAck,
                 deadline_after(kSwapAckTimeoutS)),
      conn.up.load(), outcome.message);
  if (!ack.has_value()) return outcome;
  outcome.ok = ack->ok;
  outcome.active_version = ack->active_version;
  outcome.message = ack->message;
  return outcome;
}

void ShardRouter::abort_on_shard(ShardConn& conn, SwapOutcome& outcome,
                                 const std::string& reason) {
  LockGuard call(conn.call_mutex);
  net::SwapAbortFrame abort_frame;
  abort_frame.reason = reason;
  const std::optional<net::SwapAckFrame> ack = decode_ack(
      round_trip(conn, net::FrameType::kSwapAbort,
                 net::encode_swap_abort(abort_frame), net::FrameType::kSwapAck,
                 deadline_after(kSwapAckTimeoutS)),
      conn.up.load(), outcome.message);
  outcome.rolled_back = ack.has_value() && ack->ok;
  outcome.ok = false;  // the push as a whole did not take on this shard
  if (ack.has_value()) outcome.active_version = ack->active_version;
}

std::optional<net::Frame> ShardRouter::round_trip(
    ShardConn& conn, net::FrameType type, std::string_view payload,
    net::FrameType reply_type,
    std::chrono::steady_clock::time_point deadline) {
  {
    LockGuard lock(conn.control_mutex);
    conn.reply.reset();
  }
  if (!send(conn, type, payload)) return std::nullopt;
  LockGuard lock(conn.control_mutex);
  bool timed_out = false;
  while (!conn.reply.has_value() || conn.reply->type != reply_type) {
    if (timed_out || !conn.up.load()) return std::nullopt;
    timed_out = conn.control_cv.wait_until(conn.control_mutex, deadline) ==
                std::cv_status::timeout;
  }
  std::optional<net::Frame> reply = std::move(conn.reply);
  conn.reply.reset();
  return reply;
}

bool ShardRouter::send(ShardConn& conn, net::FrameType type,
                       std::string_view payload) {
  return send(conn, net::encode_frame(type, payload));
}

bool ShardRouter::send(ShardConn& conn, std::string_view frame) {
  bool sent = false;
  {
    LockGuard lock(conn.write_mutex);
    sent = conn.sock.send_all(frame);
    // A failed write may leave a torn frame behind: shut the socket before
    // the next queued sender can block on it, so each fails at once.
    if (!sent) conn.sock.shutdown_now();
  }
  if (!sent) {
    mark_down(conn, serve::RejectReason::kShardDown);
    return false;
  }
  obs_wire_tx_frames_.inc();
  obs_wire_tx_bytes_.inc(frame.size());
  return true;
}

}  // namespace scwc::cluster
