// ClusterWorker — one shard of the sharded serving fleet.
//
// Wraps a ClassificationService behind the SCWCWIRE protocol: a listener
// thread accepts router connections; each connection gets a reader thread
// (decodes frames, submits windows, handles swaps/pings/scrapes), a
// swap-loader thread while a pushed bundle loads, and a responder thread
// (drains the FIFO of pending futures and writes verdict frames back,
// every verdict already ready by then in the same write). The split keeps
// the read path non-blocking: slow inference never stalls frame intake,
// and verdicts always leave in submission order per connection, so the
// router can rely on FIFO completion per shard.
//
// Model-bundle distribution (DESIGN.md §13): the router streams a bundle as
// SwapBegin/SwapChunk*/SwapCommit. The reader assembles the bytes; on commit
// a swap-loader thread verifies the announced CRC, hot-swaps through
// serve::try_swap_from_bytes — which on ANY load failure leaves the registry
// untouched, so a corrupt push can never take down serving — and sends the
// ack. The reader keeps draining submits meanwhile: the router bounds each
// send (kSendTimeoutS), so a reader paused for a whole bundle load would
// read as a dead shard. SwapAbort rolls the registry back one
// activation (the router sends it when a sibling shard rejected the same
// push, restoring fleet-wide version agreement).
//
// The same class backs the scwc_worker binary and the in-process cluster
// tests — router connections arrive on a local AF_UNIX socket named from
// the listener's 16-bit id (net::LocalListener) either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "serve/bundle_io.hpp"
#include "serve/service.hpp"

namespace scwc::cluster {

/// Per-future wait bound in the responder; a future that is not ready
/// within this is answered as an internal shed (never blocks forever).
inline constexpr double kVerdictWaitS = 30.0;
/// Once the head verdict is ready, how long the responder waits for each
/// verdict of the same micro-batch (the batcher is fulfilling them right
/// then), so the batch leaves in one write: each write wakes the router's
/// reader once.
inline constexpr double kBatchSiblingWaitS = 100e-6;

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

  /// Stops accepting, closes every connection, drains pending verdicts and
  /// stops the service. Idempotent; the destructor calls it.
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
  /// One verdict the responder still owes the peer, FIFO per connection.
  struct PendingVerdict {
    std::uint64_t request_id = 0;
    std::int64_t job_id = 0;
    std::chrono::steady_clock::time_point submitted_at;
    std::future<serve::ServeResult> result;
  };

  /// Per-connection state. The reader thread owns decode + swap assembly;
  /// the responder thread owns the pending queue's consumer side; both
  /// write frames under write_mutex.
  struct Connection {
    explicit Connection(net::Socket s) : sock(std::move(s)) {}

    // Written by the reader (submit/swap paths) and shut down cross-thread
    // by stop(); the socket's own fd lifecycle is the synchronization
    // (shutdown_now unblocks, close happens after joins).
    net::Socket sock;  // scwc-lint: allow(guarded-field-coverage)
    Mutex write_mutex{"cluster.worker.write"};
    Mutex queue_mutex{"cluster.worker.queue"};
    CondVar queue_cv;
    std::deque<PendingVerdict> queue SCWC_GUARDED_BY(queue_mutex);
    bool closing SCWC_GUARDED_BY(queue_mutex) = false;
    // Swap assembly state — touched only by this connection's reader.
    std::uint64_t swap_total = 0;  // scwc-lint: allow(guarded-field-coverage)
    std::string swap_buffer;  // scwc-lint: allow(guarded-field-coverage)
    bool swap_active = false;  // scwc-lint: allow(guarded-field-coverage)
    // Joined by stop() after the sockets are shut down; set once at spawn.
    std::thread reader;  // scwc-lint: allow(guarded-field-coverage)
    std::thread responder;  // scwc-lint: allow(guarded-field-coverage)
    // The last commit's load and ack; spawned and joined by the reader,
    // joined by stop() after the reader.
    std::thread swap_loader;  // scwc-lint: allow(guarded-field-coverage)
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void responder_loop(Connection& conn);
  /// Serializes + writes one frame under the connection's write mutex.
  bool send(Connection& conn, net::FrameType type, std::string_view payload);
  /// Writes already-framed bytes under the connection's write mutex.
  bool send_bytes(Connection& conn, std::string_view bytes);
  /// Frames the verdict for `pending` onto `out`; `ready` is its result,
  /// or nullopt when the wait timed out (answered as a kInternal shed).
  void append_verdict(std::string& out, const PendingVerdict& pending,
                      std::optional<serve::ServeResult> ready);
  void enqueue(Connection& conn, PendingVerdict pending);
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
  [[nodiscard]] net::VerdictFrame make_verdict(
      const PendingVerdict& pending, const serve::ServeResult& result) const;

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
  CondVar shutdown_cv_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> abstained_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace scwc::cluster
