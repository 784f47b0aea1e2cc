// ClusterWorker — one shard of the sharded serving fleet.
//
// Wraps a ClassificationService behind the SCWCWIRE protocol: a listener
// thread accepts router connections; each connection gets a reader thread
// (decodes frames, submits windows, handles swaps/pings/scrapes) and a
// responder thread (drains the FIFO of pending futures and writes verdict
// frames back, every verdict already ready by then in the same write). The
// split keeps the read path non-blocking: slow inference never stalls
// frame intake, and verdicts always leave in submission order per
// connection, so the router can rely on FIFO completion per shard.
//
// Model-bundle distribution (DESIGN.md §13): the router streams a bundle as
// SwapBegin/SwapChunk*/SwapCommit. The worker assembles the bytes, verifies
// the announced CRC, and hot-swaps through serve::try_swap_from_bytes —
// which on ANY load failure leaves the registry untouched, so a corrupt
// push can never take down serving. SwapAbort rolls the registry back one
// activation (the router sends it when a sibling shard rejected the same
// push, restoring fleet-wide version agreement).
//
// The same class backs the scwc_worker binary and the in-process cluster
// tests — everything is loopback TCP either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "serve/service.hpp"

namespace scwc::cluster {

/// Per-future wait bound in the responder; a future that is not ready
/// within this is answered as an internal shed (never blocks forever).
inline constexpr double kVerdictWaitS = 30.0;

struct WorkerConfig {
  std::uint32_t shard_id = 0;
  std::uint16_t port = 0;  ///< 0 → ephemeral; read back via port()
  serve::ServiceConfig service;
};

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
  /// so the worker owns the full request path of its shard.
  ClusterWorker(serve::ModelRegistry& registry, WorkerConfig config);
  ~ClusterWorker();

  ClusterWorker(const ClusterWorker&) = delete;
  ClusterWorker& operator=(const ClusterWorker&) = delete;

  /// Binds the listener and starts accepting. Throws scwc::Error when the
  /// port cannot be bound.
  void start();

  /// Stops accepting, closes every connection, drains pending verdicts and
  /// stops the service. Idempotent; the destructor calls it.
  void stop();

  /// Blocks until a kShutdown frame arrives (or stop() is called). The
  /// scwc_worker main parks here.
  void wait_shutdown();

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
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
  void handle_swap_abort(Connection& conn, std::string_view payload);
  void send_metrics(Connection& conn);
  [[nodiscard]] net::VerdictFrame make_verdict(
      const PendingVerdict& pending, const serve::ServeResult& result) const;

  serve::ModelRegistry& registry_;
  const WorkerConfig config_;
  // Internally synchronized / thread-confined members of the worker shell;
  // the service and listener own their own locking.
  std::unique_ptr<serve::ClassificationService> service_;  // scwc-lint: allow(guarded-field-coverage)
  net::TcpListener listener_;  // scwc-lint: allow(guarded-field-coverage)
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
