#include "cluster/worker.hpp"

#include <chrono>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/bundle_io.hpp"
#include "serve/retry.hpp"

namespace scwc::cluster {

ClusterWorker::ClusterWorker(serve::ModelRegistry& registry,
                             WorkerConfig config)
    : registry_(registry), config_(std::move(config)) {
  service_ = std::make_unique<serve::ClassificationService>(
      registry_, config_.service);
}

ClusterWorker::~ClusterWorker() { stop(); }

void ClusterWorker::start() {
  {
    LockGuard lock(mutex_);
    SCWC_REQUIRE(!started_, "ClusterWorker: already started");
    SCWC_REQUIRE(!stopped_, "ClusterWorker: already stopped");
    started_ = true;
  }
  listener_.listen(config_.port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  SCWC_LOG_INFO("cluster worker shard " << config_.shard_id
                << " listening on 127.0.0.1:" << listener_.port());
}

void ClusterWorker::stop() {
  std::vector<std::unique_ptr<Connection>> conns;
  {
    LockGuard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
    conns.swap(connections_);
  }
  shutdown_cv_.notify_all();
  listener_.shutdown_now();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  for (auto& conn : conns) {
    conn->sock.shutdown_now();
    {
      LockGuard lock(conn->queue_mutex);
      conn->closing = true;
    }
    conn->queue_cv.notify_all();
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->responder.joinable()) conn->responder.join();
    conn->sock.close();
  }
  service_->stop();
}

void ClusterWorker::wait_shutdown() {
  LockGuard lock(mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(mutex_);
}

WorkerCounters ClusterWorker::counters() const noexcept {
  WorkerCounters c;
  c.submitted = submitted_.load();
  c.answered = answered_.load();
  c.abstained = abstained_.load();
  c.shed = shed_.load();
  c.swaps = swaps_.load();
  return c;
}

void ClusterWorker::accept_loop() {
  while (true) {
    net::Socket sock = listener_.accept();
    if (!sock.valid()) return;  // stop() shut the listener down
    auto conn = std::make_unique<Connection>(std::move(sock));
    Connection& ref = *conn;
    {
      LockGuard lock(mutex_);
      if (stopped_) return;
      connections_.push_back(std::move(conn));
    }
    net::HelloFrame hello;
    hello.shard_id = config_.shard_id;
    hello.window_steps =
        static_cast<std::uint32_t>(config_.service.assembler.window_steps);
    hello.sensors =
        static_cast<std::uint32_t>(config_.service.assembler.sensors);
    if (const auto bundle = registry_.current()) {
      hello.model_version = bundle->version();
    }
    if (!send(ref, net::FrameType::kHello, net::encode_hello(hello))) {
      continue;  // peer vanished before the handshake; reader will reap it
    }
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
    ref.responder = std::thread([this, &ref] { responder_loop(ref); });
  }
}

void ClusterWorker::reader_loop(Connection& conn) {
  net::FrameReader frames;
  try {
    while (std::optional<net::Frame> frame = frames.next(conn.sock)) {
      switch (frame->type) {
        case net::FrameType::kSubmitWindow:
          handle_submit(conn, frame->payload);
          break;
        case net::FrameType::kPing:
          handle_ping(conn, frame->payload);
          break;
        case net::FrameType::kMetricsScrape:
          send_metrics(conn);
          break;
        case net::FrameType::kSwapBegin:
          handle_swap_begin(conn, frame->payload);
          break;
        case net::FrameType::kSwapChunk:
          handle_swap_chunk(conn, frame->payload);
          break;
        case net::FrameType::kSwapCommit:
          handle_swap_commit(conn, frame->payload);
          break;
        case net::FrameType::kSwapAbort:
          handle_swap_abort(conn, frame->payload);
          break;
        case net::FrameType::kShutdown: {
          SCWC_LOG_INFO("cluster worker shard "
                        << config_.shard_id
                        << ": shutdown requested by router");
          {
            LockGuard lock(mutex_);
            shutdown_requested_ = true;
          }
          shutdown_cv_.notify_all();
          break;
        }
        default:
          break;  // kPong / kError / unexpected-but-valid types: ignore
      }
    }
  } catch (const scwc::Error& e) {
    // Protocol violation (bad magic, CRC, malformed payload): report it on
    // the wire if the peer still listens, then drop the connection — a
    // corrupt peer must never take the worker down.
    net::ErrorFrame err;
    err.code = 1;
    err.message = e.what();
    (void)send(conn, net::FrameType::kError, net::encode_error(err));
    SCWC_LOG_WARN("cluster worker shard "
                  << config_.shard_id
                  << ": dropping connection after protocol error: "
                  << e.what());
  }
  conn.sock.shutdown_now();
  {
    LockGuard lock(conn.queue_mutex);
    conn.closing = true;
  }
  conn.queue_cv.notify_all();
}

void ClusterWorker::responder_loop(Connection& conn) {
  // Byte-stream coalescing: once the head verdict is ready, every queued
  // verdict that is ready too is framed into the same buffer and leaves in
  // one write; the router's FrameReader splits it back into frames.
  std::string out;
  std::optional<PendingVerdict> carried;  // popped, but was not ready yet
  while (true) {
    PendingVerdict head;
    if (carried.has_value()) {
      head = std::move(*carried);
      carried.reset();
    } else {
      LockGuard lock(conn.queue_mutex);
      while (conn.queue.empty() && !conn.closing) {
        conn.queue_cv.wait(conn.queue_mutex);
      }
      if (conn.queue.empty()) return;  // closing, fully drained
      head = std::move(conn.queue.front());
      conn.queue.pop_front();
    }
    out.clear();
    append_verdict(out, head,
                   serve::get_within(head.result, kVerdictWaitS));
    while (true) {
      PendingVerdict next;
      {
        LockGuard lock(conn.queue_mutex);
        if (conn.queue.empty()) break;
        next = std::move(conn.queue.front());
        conn.queue.pop_front();
      }
      // Readiness is polled with the queue lock released.
      std::optional<serve::ServeResult> ready =
          serve::get_within(next.result, 0.0);
      if (!ready.has_value()) {
        carried = std::move(next);
        break;
      }
      append_verdict(out, next, std::move(ready));
    }
    // A gone peer fails the write; keep draining so queued futures are
    // still consumed.
    (void)send_bytes(conn, out);
  }
}

void ClusterWorker::append_verdict(std::string& out,
                                   const PendingVerdict& pending,
                                   std::optional<serve::ServeResult> ready) {
  serve::ServeResult result;
  if (ready.has_value()) {
    result = std::move(*ready);
  } else {
    // The promise side is wedged or lost — answer with a typed shed so
    // the router never waits on a verdict that will not come.
    result.accepted = false;
    result.reject_reason = serve::RejectReason::kInternal;
  }
  if (result.accepted) {
    answered_.fetch_add(1);
    if (result.prediction.abstained) abstained_.fetch_add(1);
  } else {
    shed_.fetch_add(1);
  }
  net::append_frame(out, net::FrameType::kVerdict,
                    net::encode_verdict(make_verdict(pending, result)));
}

bool ClusterWorker::send(Connection& conn, net::FrameType type,
                         std::string_view payload) {
  return send_bytes(conn, net::encode_frame(type, payload));
}

bool ClusterWorker::send_bytes(Connection& conn, std::string_view bytes) {
  LockGuard lock(conn.write_mutex);
  return conn.sock.send_all(bytes);
}

void ClusterWorker::enqueue(Connection& conn, PendingVerdict pending) {
  {
    LockGuard lock(conn.queue_mutex);
    if (conn.closing) return;  // future is dropped; promise side still runs
    conn.queue.push_back(std::move(pending));
  }
  conn.queue_cv.notify_one();
}

void ClusterWorker::handle_submit(Connection& conn, std::string_view payload) {
  net::SubmitWindowFrame frame = net::decode_submit_window(payload);
  submitted_.fetch_add(1);
  PendingVerdict pending;
  pending.request_id = frame.request_id;
  pending.job_id = frame.job_id;
  pending.submitted_at = std::chrono::steady_clock::now();
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (frame.deadline_ns > 0) {
    deadline =
        pending.submitted_at + std::chrono::nanoseconds(frame.deadline_ns);
  } else if (service_->config().default_deadline_s > 0.0) {
    deadline = pending.submitted_at +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       service_->config().default_deadline_s));
  }
  pending.result = service_->submit_with_trace(
      std::move(frame.values), frame.steps, frame.sensors, deadline,
      frame.trace_id, frame.trace_sampled);
  enqueue(conn, std::move(pending));
}

void ClusterWorker::handle_ping(Connection& conn, std::string_view payload) {
  const net::PingFrame ping = net::decode_ping(payload);
  net::PongFrame pong;
  pong.nonce = ping.nonce;
  // Our monotonic clock, stamped as late as possible so the router's
  // NTP-style offset estimate sees minimal serialization delay.
  pong.t_mono_ns = obs::steady_ns();
  send(conn, net::FrameType::kPong, net::encode_pong(pong));
}

void ClusterWorker::handle_swap_begin(Connection& conn,
                                      std::string_view payload) {
  const net::SwapBeginFrame frame = net::decode_swap_begin(payload);
  SCWC_REQUIRE(frame.total_bytes <= net::kMaxSwapBytes,
               "swap_begin: bundle larger than kMaxSwapBytes");
  conn.swap_version = frame.version;
  conn.swap_total = frame.total_bytes;
  conn.swap_buffer.clear();
  conn.swap_buffer.reserve(static_cast<std::size_t>(frame.total_bytes));
  conn.swap_active = true;
}

void ClusterWorker::handle_swap_chunk(Connection& conn,
                                      std::string_view payload) {
  const net::SwapChunkFrame frame = net::decode_swap_chunk(payload);
  SCWC_REQUIRE(conn.swap_active, "swap_chunk: no swap in progress");
  SCWC_REQUIRE(frame.offset == conn.swap_buffer.size(),
               "swap_chunk: out-of-order chunk");
  SCWC_REQUIRE(frame.offset + frame.bytes.size() <= conn.swap_total,
               "swap_chunk: bytes beyond the announced total");
  conn.swap_buffer += frame.bytes;
}

void ClusterWorker::handle_swap_commit(Connection& conn,
                                       std::string_view payload) {
  const net::SwapCommitFrame frame = net::decode_swap_commit(payload);
  net::SwapAckFrame ack;
  if (!conn.swap_active) {
    ack.message = "no swap in progress";
  } else if (conn.swap_buffer.size() != conn.swap_total) {
    ack.message = "incomplete bundle stream";
  } else if (crc32(conn.swap_buffer) != frame.crc32) {
    ack.message = "bundle CRC mismatch";
  } else {
    // try_swap_from_bytes is failure-isolating: a corrupt bundle leaves
    // the registry (and serving) exactly as it was.
    const auto bundle =
        serve::try_swap_from_bytes(registry_, conn.swap_buffer);
    if (bundle != nullptr) {
      ack.ok = true;
      swaps_.fetch_add(1);
      SCWC_LOG_INFO("cluster worker shard "
                    << config_.shard_id << ": swapped to bundle '"
                    << bundle->version() << "'");
    } else {
      ack.message = "bundle rejected by loader";
    }
  }
  conn.swap_active = false;
  conn.swap_buffer.clear();
  conn.swap_buffer.shrink_to_fit();
  if (const auto current = registry_.current()) {
    ack.active_version = current->version();
  }
  send(conn, net::FrameType::kSwapAck, net::encode_swap_ack(ack));
}

void ClusterWorker::handle_swap_abort(Connection& conn,
                                      std::string_view payload) {
  const net::SwapAbortFrame frame = net::decode_swap_abort(payload);
  conn.swap_active = false;
  conn.swap_buffer.clear();
  net::SwapAckFrame ack;
  // Roll back one activation; a worker that never committed the push (its
  // own commit failed, or it never saw one) has nothing to undo and acks
  // with its unchanged version.
  const auto restored = registry_.rollback();
  ack.ok = true;
  ack.message = restored != nullptr ? "rolled back" : "nothing to roll back";
  if (const auto current = registry_.current()) {
    ack.active_version = current->version();
  }
  SCWC_LOG_INFO("cluster worker shard "
                << config_.shard_id << ": swap abort (" << frame.reason
                << ") → serving '" << ack.active_version << "'");
  send(conn, net::FrameType::kSwapAck, net::encode_swap_ack(ack));
}

void ClusterWorker::send_metrics(Connection& conn) {
  // Condense the process-wide registry snapshot: counters and gauges
  // verbatim, rolling histograms as quantile summaries (the router
  // re-exports quantiles as labeled gauges; full buckets stay local).
  // Entry caps match the wire caps, truncating deterministically (the
  // registry orders snapshots by name).
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  net::MetricsReplyFrame reply;
  for (const auto& [name, value] : snap.counters) {
    if (reply.counters.size() >= net::kMaxMetricsEntries) break;
    reply.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    if (reply.gauges.size() >= net::kMaxMetricsEntries) break;
    reply.gauges.emplace_back(name, value);
  }
  for (const auto& roll : snap.rolling) {
    if (reply.rolling.size() >= net::kMaxMetricsEntries) break;
    net::MetricsRollingEntry e;
    e.name = roll.name;
    e.count = roll.count;
    e.p50 = roll.p50;
    e.p90 = roll.p90;
    e.p99 = roll.p99;
    reply.rolling.push_back(std::move(e));
  }
  send(conn, net::FrameType::kMetricsReply, net::encode_metrics_reply(reply));
}

net::VerdictFrame ClusterWorker::make_verdict(
    const PendingVerdict& pending, const serve::ServeResult& result) const {
  net::VerdictFrame v;
  v.request_id = pending.request_id;
  v.trace_id = result.trace_id;
  v.job_id = pending.job_id;
  v.accepted = result.accepted;
  v.reject_reason = static_cast<std::uint8_t>(result.reject_reason);
  v.degrade_level = static_cast<std::uint8_t>(result.degrade_level);
  v.abstained = result.prediction.abstained;
  v.abstain_reason = static_cast<std::uint8_t>(result.prediction.reason);
  v.label = result.prediction.label;
  v.batch_size = static_cast<std::uint32_t>(result.batch_size);
  v.quality = result.prediction.report.quality();
  v.worker_latency_s = obs::seconds_between(pending.submitted_at,
                                            std::chrono::steady_clock::now());
  v.missing_values =
      static_cast<std::uint32_t>(result.prediction.report.missing_values);
  v.repaired_values =
      static_cast<std::uint32_t>(result.prediction.report.repaired_values);
  v.model_version = result.model_version;
  // Phase breakdown for the router's cross-process trace: everything
  // spent waiting inside this worker folds into worker_queue.
  v.worker_queue_s = result.phases.admission_s + result.phases.queue_s +
                     result.phases.batch_wait_s;
  v.worker_transform_s = result.phases.transform_s;
  v.worker_predict_s = result.phases.predict_s;
  return v;
}

}  // namespace scwc::cluster
