#include "cluster/worker.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/request_trace.hpp"
#include "serve/bundle_io.hpp"

namespace scwc::cluster {

ClusterWorker::ClusterWorker(serve::ModelRegistry& registry,
                             WorkerConfig config, BundleLoader load)
    : registry_(registry), config_(std::move(config)), load_(std::move(load)) {
  service_ = std::make_unique<serve::ClassificationService>(
      registry_, config_.service);
  auto& reg = obs::MetricsRegistry::global();
  obs_frames_per_read_ = reg.histogram(
      "scwc_cluster_worker_frames_per_read",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  obs_quiet_in_time_ =
      reg.counter("scwc_cluster_worker_quiet_waits_in_time_total");
  obs_quiet_overran_ =
      reg.counter("scwc_cluster_worker_quiet_waits_overran_total");
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
                << " listening on local id " << listener_.id());
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
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->swap_loader.joinable()) conn->swap_loader.join();
  }
  // Drain every delivery and the writers it started (each fails at once on
  // its shut socket) before an fd closes (and could be reused).
  service_->stop();
  for (auto& conn : conns) conn->wait_written();
  for (auto& conn : conns) conn->sock.close();
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
  set_thread_name("wk-accept");
  while (true) {
    net::Socket sock = listener_.accept();
    if (!sock.valid()) return;  // stop() shut the listener down
    sock.set_send_timeout(net::kSendTimeoutS);
    auto conn = std::make_unique<Connection>(*this, std::move(sock));
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
    ref.send(net::FrameType::kHello, net::encode_hello(hello));
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
  }
}

void ClusterWorker::reader_loop(Connection& conn) {
  set_thread_name("wk-reader");
  net::FrameReader frames;
  // A quiet wait leaves at most half the socket's buffer unread.
  const std::size_t unread_cap = conn.sock.send_buffer_bytes() / 2;
  double in_read = 0;  // frames taken since the reader last waited on recv
  try {
    while (std::optional<net::Frame> frame = frames.next(conn.sock)) {
      ++in_read;
      const bool drained = frames.buffered() == 0;
      if (drained) {
        obs_frames_per_read_.observe(in_read);
        in_read = 0;
      }
      switch (frame->type) {
        case net::FrameType::kSubmitWindow: {
          const std::size_t frame_bytes =
              net::kHeaderBytes + frame->payload.size();
          handle_submit(conn, frame->payload);
          if (drained) quiet_wait(unread_cap / frame_bytes);
          break;
        }
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
    conn.send(net::FrameType::kError, net::encode_error(err));
    conn.wait_written();
    SCWC_LOG_WARN("cluster worker shard "
                  << config_.shard_id
                  << ": dropping connection after protocol error: "
                  << e.what());
  }
  conn.sock.shutdown_now();
}

void ClusterWorker::quiet_wait(std::size_t max_last_cut) {
  using clock = std::chrono::steady_clock;
  const auto cut = service_->light_cut_at(max_last_cut);
  if (!cut) return;
  const auto lead = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(kQuietWaitLeadS));
  const auto cap = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(net::kSendTimeoutS / 4));
  const auto now = clock::now();
  const auto until = std::min(*cut - lead, now + cap);
  if (until <= now) return;
  {
    LockGuard lock(mutex_);
    while (!stopped_ &&
           shutdown_cv_.wait_until(mutex_, until) != std::cv_status::timeout) {
    }
    if (stopped_) return;
  }
  (clock::now() < *cut ? obs_quiet_in_time_ : obs_quiet_overran_).inc();
}

void ClusterWorker::Connection::deliver(std::uint64_t tag,
                                        serve::ServeResult result) {
  if (result.accepted) {
    worker.answered_.fetch_add(1);
    if (result.prediction.abstained) worker.abstained_.fetch_add(1);
  } else {
    worker.shed_.fetch_add(1);
  }
  const std::string payload = net::encode_verdict(make_verdict(tag, result));
  LockGuard lock(write_mutex);
  if (!broken) net::append_frame(outbox, net::FrameType::kVerdict, payload);
}

void ClusterWorker::Connection::flush() {
  {
    LockGuard lock(write_mutex);
    if (writing || outbox.empty()) return;  // the writer sends these too
    writing = true;
  }
  pump(false);
}

void ClusterWorker::Connection::pump(bool may_wait) {
  std::string bytes;
  while (true) {
    {
      LockGuard lock(write_mutex);
      if (broken || outbox.empty()) {
        writing = false;
        written_cv.notify_all();
        return;
      }
      bytes.swap(outbox);  // all of it in one write; the router splits it
    }
    const std::optional<std::size_t> sent = sock.send_some(bytes, may_wait);
    LockGuard lock(write_mutex);
    if (!sent) {
      // Peer gone, or stuck for net::kSendTimeoutS mid-frame: send no more.
      broken = true;
      outbox.clear();
      sock.shutdown_now();
    } else if (*sent < bytes.size()) {
      // The peer is behind: the rest goes first, from a pool task that may
      // wait for it, so the thread that flushed goes on.
      outbox.insert(0, bytes, *sent);
      break;
    }
    bytes.clear();
  }
  if (!ThreadPool::global().try_submit(
          [this] { pump(true); }, ThreadPool::kUnboundedQueueSanityLimit)) {
    pump(true);  // the pool has stopped (process exit): wait here
  }
}

void ClusterWorker::Connection::send(net::FrameType type,
                                     std::string_view payload) {
  {
    LockGuard lock(write_mutex);
    if (!broken) net::append_frame(outbox, type, payload);
  }
  flush();
}

void ClusterWorker::Connection::wait_written() {
  LockGuard lock(write_mutex);
  while (writing) written_cv.wait(write_mutex);
}

void ClusterWorker::handle_submit(Connection& conn, std::string_view payload) {
  net::SubmitWindowFrame frame = net::decode_submit_window(payload);
  submitted_.fetch_add(1);
  const auto now = std::chrono::steady_clock::now();
  auto deadline = std::chrono::steady_clock::time_point::max();
  if (frame.deadline_ns > 0) {
    deadline = now + std::chrono::nanoseconds(frame.deadline_ns);
  } else if (service_->config().default_deadline_s > 0.0) {
    deadline = now +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       service_->config().default_deadline_s));
  }
  service_->submit_to(conn, frame.request_id, std::move(frame.values),
                      frame.steps, frame.sensors, deadline, frame.trace_id,
                      frame.trace_sampled, frame.job_id);
}

void ClusterWorker::handle_ping(Connection& conn, std::string_view payload) {
  const net::PingFrame ping = net::decode_ping(payload);
  net::PongFrame pong;
  pong.nonce = ping.nonce;
  // Our monotonic clock, stamped as late as possible so the router's
  // NTP-style offset estimate sees minimal serialization delay.
  pong.t_mono_ns = obs::steady_ns();
  conn.send(net::FrameType::kPong, net::encode_pong(pong));
}

void ClusterWorker::handle_swap_begin(Connection& conn,
                                      std::string_view payload) {
  const net::SwapBeginFrame frame = net::decode_swap_begin(payload);
  SCWC_REQUIRE(frame.total_bytes <= net::kMaxSwapBytes,
               "swap_begin: bundle larger than kMaxSwapBytes");
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
  // The router sends the next commit only after this one's ack.
  if (conn.swap_loader.joinable()) conn.swap_loader.join();
  std::string bytes = std::exchange(conn.swap_buffer, std::string());
  const bool active = std::exchange(conn.swap_active, false);
  if (!active || bytes.size() != conn.swap_total) {
    net::SwapAckFrame ack;
    ack.message = active ? "incomplete bundle stream" : "no swap in progress";
    send_swap_ack(conn, std::move(ack));
    return;
  }
  // The CRC check and the load run off this thread, so submits keep
  // draining meanwhile.
  conn.swap_loader = std::thread(
      [this, &conn, bundle = std::move(bytes), crc = frame.crc32]() mutable {
        commit_swap(conn, std::move(bundle), crc);
      });
}

void ClusterWorker::commit_swap(Connection& conn, std::string bytes,
                                std::uint32_t crc) {
  set_thread_name("wk-swap");
  net::SwapAckFrame ack;
  if (crc32(bytes) != crc) {
    ack.message = "bundle CRC mismatch";
  } else {
    // The loader is failure-isolating: a corrupt bundle leaves the
    // registry (and serving) exactly as it was.
    const auto bundle = load_(registry_, bytes);
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
  send_swap_ack(conn, std::move(ack));
}

void ClusterWorker::send_swap_ack(Connection& conn, net::SwapAckFrame ack) {
  if (const auto current = registry_.current()) {
    ack.active_version = current->version();
  }
  conn.send(net::FrameType::kSwapAck, net::encode_swap_ack(ack));
}

void ClusterWorker::handle_swap_abort(Connection& conn,
                                      std::string_view payload) {
  const net::SwapAbortFrame frame = net::decode_swap_abort(payload);
  // Roll back only after a commit still loading has landed.
  if (conn.swap_loader.joinable()) conn.swap_loader.join();
  conn.swap_active = false;
  conn.swap_buffer.clear();
  net::SwapAckFrame ack;
  // Roll back one activation; a worker that never committed the push (its
  // own commit failed, or it never saw one) has nothing to undo and acks
  // with its unchanged version.
  const auto restored = registry_.rollback();
  ack.ok = true;
  ack.message = restored != nullptr ? "rolled back" : "nothing to roll back";
  SCWC_LOG_INFO("cluster worker shard " << config_.shard_id
                << ": swap abort (" << frame.reason << "): " << ack.message);
  send_swap_ack(conn, std::move(ack));
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
  conn.send(net::FrameType::kMetricsReply, net::encode_metrics_reply(reply));
}

net::VerdictFrame ClusterWorker::make_verdict(
    std::uint64_t request_id, const serve::ServeResult& result) {
  net::VerdictFrame v;
  v.request_id = request_id;
  v.trace_id = result.trace_id;
  v.job_id = result.job_id;
  v.accepted = result.accepted;
  v.reject_reason = static_cast<std::uint8_t>(result.reject_reason);
  v.degrade_level = static_cast<std::uint8_t>(result.degrade_level);
  v.abstained = result.prediction.abstained;
  v.abstain_reason = static_cast<std::uint8_t>(result.prediction.reason);
  v.label = result.prediction.label;
  v.batch_size = static_cast<std::uint32_t>(result.batch_size);
  v.quality = result.prediction.report.quality();
  v.worker_latency_s = result.phases.total_s;  // submit → verdict
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
