// ClusterWorker — one shard of the sharded serving fleet.
//
// Wraps a ClassificationService behind the SCWCWIRE protocol: a listener
// thread accepts router connections; each connection gets a reader thread
// (decodes frames, submits windows, handles swaps/pings/scrapes) and a
// swap-loader thread while a pushed bundle loads. Each connection is the
// VerdictSink of its windows: verdict frames collect in its outbox and the
// batch that made them writes the outbox in one send, from the pool thread
// that ran it. Verdicts leave in batch order; the router matches them by
// request id. Only a pool task waits on a slow peer (Connection::pump).
//
// Model-bundle distribution (DESIGN.md §13): the router streams a bundle as
// SwapBegin/SwapChunk*/SwapCommit. The reader assembles the bytes; on commit
// a swap-loader thread verifies the announced CRC, hot-swaps through
// serve::try_swap_from_bytes — which on ANY load failure leaves the registry
// untouched, so a corrupt push can never take down serving — and sends the
// ack. The reader keeps draining submits meanwhile: the router bounds each
// send (net::kSendTimeoutS), so a reader paused for a whole bundle load
// would read as a dead shard. SwapAbort rolls the registry back one
// activation (the router sends it when a sibling shard rejected the same
// push, restoring fleet-wide version agreement).
//
// The same class backs the scwc_worker binary and the in-process cluster
// tests — router connections arrive on a local AF_UNIX socket named from
// the listener's 16-bit id (net::LocalListener) either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"

namespace scwc::cluster {

/// How long before the open batch's cut a reader in a quiet wait wakes
/// (DESIGN.md §13.3): about the p99 lateness of its timed wait plus the
/// p99 time it takes to read what arrived meanwhile.
inline constexpr double kQuietWaitLeadS = 500e-6;

struct WorkerConfig {
  std::uint32_t shard_id = 0;
  /// Local socket id the router dials (net::LocalListener); 0 → any free
  /// id, read back via port().
  std::uint16_t port = 0;
  serve::ServiceConfig service;
};

/// Loads pushed bundle bytes into a registry and activates them; returns
/// nullptr, with the registry untouched, on any failure.
using BundleLoader = std::function<std::shared_ptr<const serve::ModelBundle>(
    serve::ModelRegistry&, std::string_view)>;

/// Monotonic serving counters, readable while the worker runs.
struct WorkerCounters {
  std::uint64_t submitted = 0;  ///< windows received on the wire
  std::uint64_t answered = 0;   ///< accepted verdicts (incl. abstains)
  std::uint64_t abstained = 0;
  std::uint64_t shed = 0;       ///< rejected verdicts
  std::uint64_t swaps = 0;      ///< successful bundle hot-swaps
};

class ClusterWorker {
 public:
  /// `registry` must outlive the worker. The service is constructed here
  /// so the worker owns the full request path of its shard. `load` runs a
  /// committed bundle push (a slow one in tests).
  ClusterWorker(serve::ModelRegistry& registry, WorkerConfig config,
                BundleLoader load = serve::try_swap_from_bytes);
  ~ClusterWorker();

  ClusterWorker(const ClusterWorker&) = delete;
  ClusterWorker& operator=(const ClusterWorker&) = delete;

  /// Binds the listener and starts accepting. Throws scwc::Error when the
  /// id cannot be bound.
  void start();

  /// Stops accepting, shuts every connection down, stops the service (so
  /// every verdict is delivered), then closes the sockets. Idempotent; the
  /// destructor calls it.
  void stop();

  /// Blocks until a kShutdown frame arrives (or stop() is called). The
  /// scwc_worker main parks here.
  void wait_shutdown();

  /// The bound local socket id: what ShardRouter::add_shard takes.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.id(); }
  [[nodiscard]] WorkerCounters counters() const noexcept;
  [[nodiscard]] serve::ClassificationService& service() noexcept {
    return *service_;
  }

 private:
  /// Per-connection state, and the verdict sink of its submits (the tag
  /// is the router's request id). The reader thread owns decode + swap
  /// assembly. Every frame goes through the outbox, which one thread at a
  /// time (`writing`) sends.
  struct Connection final : serve::VerdictSink {
    Connection(ClusterWorker& w, net::Socket s)
        : worker(w), sock(std::move(s)) {}

    /// Counts the verdict and frames it into the outbox.
    void deliver(std::uint64_t tag, serve::ServeResult result) override;
    /// Sends the outbox unless a writer is already sending it.
    void flush() override;
    /// Frames one frame into the outbox and flushes it.
    void send(net::FrameType type, std::string_view payload);
    /// Returns once no thread is sending (within net::kSendTimeoutS).
    void wait_written();
    /// The writer's loop: sends the outbox until it is empty. Without
    /// `may_wait` it sends only what the socket takes now and leaves the
    /// rest to a pool task, so no flush waits on a slow peer.
    void pump(bool may_wait);

    ClusterWorker& worker;
    // Shut down cross-thread by stop(), the reader and a failed send;
    // closed only after the service has stopped and the writer is done.
    net::Socket sock;  // scwc-lint: allow(guarded-field-coverage)
    Mutex write_mutex{"cluster.worker.write"};
    CondVar written_cv;  // signalled when `writing` clears
    std::string outbox SCWC_GUARDED_BY(write_mutex);  // not yet sent
    bool writing SCWC_GUARDED_BY(write_mutex) = false;  // a thread sends
    bool broken SCWC_GUARDED_BY(write_mutex) = false;  // later frames drop
    // Swap assembly state — touched only by this connection's reader.
    std::uint64_t swap_total = 0;  // scwc-lint: allow(guarded-field-coverage)
    std::string swap_buffer;  // scwc-lint: allow(guarded-field-coverage)
    bool swap_active = false;  // scwc-lint: allow(guarded-field-coverage)
    // Joined by stop() after the sockets are shut down; set once at spawn.
    std::thread reader;  // scwc-lint: allow(guarded-field-coverage)
    // The last commit's load and ack; spawned and joined by the reader,
    // joined by stop() after the reader.
    std::thread swap_loader;  // scwc-lint: allow(guarded-field-coverage)
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  /// While traffic is light, sleeps until kQuietWaitLeadS before the open
  /// batch's cut (at most net::kSendTimeoutS / 4), or until stop(). The
  /// frames that arrive meanwhile wait unread in the socket.
  void quiet_wait(std::size_t max_last_cut);
  void handle_submit(Connection& conn, std::string_view payload);
  void handle_ping(Connection& conn, std::string_view payload);
  void handle_swap_begin(Connection& conn, std::string_view payload);
  void handle_swap_chunk(Connection& conn, std::string_view payload);
  void handle_swap_commit(Connection& conn, std::string_view payload);
  /// The swap loader's body: verifies, loads and acks one committed push.
  void commit_swap(Connection& conn, std::string bytes, std::uint32_t crc);
  void handle_swap_abort(Connection& conn, std::string_view payload);
  /// Stamps the registry's current version on a commit's ack and sends it.
  void send_swap_ack(Connection& conn, net::SwapAckFrame ack);
  void send_metrics(Connection& conn);
  [[nodiscard]] static net::VerdictFrame make_verdict(
      std::uint64_t request_id, const serve::ServeResult& result);

  serve::ModelRegistry& registry_;
  const WorkerConfig config_;
  const BundleLoader load_;
  // Internally synchronized / thread-confined members of the worker shell;
  // the service and listener own their own locking.
  std::unique_ptr<serve::ClassificationService> service_;  // scwc-lint: allow(guarded-field-coverage)
  net::LocalListener listener_;  // scwc-lint: allow(guarded-field-coverage)
  std::thread accept_thread_;  // scwc-lint: allow(guarded-field-coverage)

  Mutex mutex_{"cluster.worker"};
  std::vector<std::unique_ptr<Connection>> connections_
      SCWC_GUARDED_BY(mutex_);
  bool started_ SCWC_GUARDED_BY(mutex_) = false;
  bool stopped_ SCWC_GUARDED_BY(mutex_) = false;
  bool shutdown_requested_ SCWC_GUARDED_BY(mutex_) = false;
  CondVar shutdown_cv_;  // also ends every reader's quiet wait at stop()

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> abstained_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> swaps_{0};

  obs::HistogramHandle obs_frames_per_read_;
  obs::CounterHandle obs_quiet_in_time_;  ///< woke before the batch's cut
  obs::CounterHandle obs_quiet_overran_;  ///< woke at or after it
};

}  // namespace scwc::cluster
