// Loopback TCP primitives for the sharded serving cluster and the HTTP
// scrape endpoint (net/scrape.*).
//
// This is the only file that makes raw socket syscalls — the
// `no-raw-socket-calls` lint rule enforces it. Everything above (router,
// worker, scrape server, tools, benches) talks through Socket/TcpListener,
// the wire protocol in SCWCWIRE frames through FrameReader/write_frame,
// and never sees a file descriptor.
//
// Security posture matches the scrape endpoint (DESIGN.md §7): the
// listener binds 127.0.0.1 only — the wire protocol carries operational
// control (model swaps, shutdown) and has no auth, so cross-host serving
// would need an authenticated transport in front, not a 0.0.0.0 bind.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/wire.hpp"

namespace scwc::net {

/// Move-only owner of one connected socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// SO_RCVTIMEO/SO_SNDTIMEO in seconds; ≤ 0 restores fully blocking I/O.
  void set_io_timeout(double seconds) noexcept;

  /// Writes all of `data`; false when the peer is gone or times out.
  [[nodiscard]] bool send_all(std::string_view data) noexcept;

  /// One recv of up to `cap` bytes into `buf`: the byte count, or 0 on
  /// EOF, timeout or error.
  [[nodiscard]] std::size_t recv_some(char* buf, std::size_t cap) noexcept;

  /// Half-closes both directions, unblocking any thread inside recv/send
  /// on this socket (used for cross-thread shutdown; close() follows once
  /// the blocked thread has returned).
  void shutdown_now() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening socket bound to 127.0.0.1. Port 0 requests an ephemeral port;
/// port() reports the bound one.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds + listens. Throws scwc::Error when the socket cannot be set up.
  void listen(std::uint16_t port, int backlog = 16);

  /// Blocks for the next connection; an invalid Socket means the listener
  /// was shut down (or the accept failed terminally).
  [[nodiscard]] Socket accept() noexcept;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }

  /// Unblocks accept() from another thread; the listener is dead after.
  void shutdown_now() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:`port`, retrying (connection refused counts as
/// "worker not up yet") until `deadline_s` of wall time passes. Returns an
/// invalid Socket on timeout.
[[nodiscard]] Socket connect_loopback(std::uint16_t port, double deadline_s);

/// Sends one SCWCWIRE frame. False when the peer is gone.
[[nodiscard]] bool write_frame(Socket& sock, FrameType type,
                               std::string_view payload);

/// The receive side of one connection: a buffer that a single recv of up
/// to 64 KiB fills with as many frames as the peer has written, so a
/// coalesced write is read back in few syscalls. Every byte of a
/// connection must pass through its one FrameReader — bytes it buffered
/// past a frame belong to the next one.
class FrameReader {
 public:
  /// The next frame from `sock`. nullopt on EOF (mid-frame included), peer
  /// gone, receive timeout or shutdown. Throws scwc::Error on protocol
  /// violations — bad magic, version or type and an over-cap payload_len
  /// from the header alone, before any payload is awaited or allocated;
  /// a CRC mismatch once the payload is in — a corrupt peer must be
  /// surfaced, not silently dropped.
  [[nodiscard]] std::optional<Frame> next(Socket& sock);

 private:
  static constexpr std::size_t kRecvChunkBytes = 64 * 1024;

  /// Receives until `need` unconsumed bytes are buffered; false on EOF.
  bool fill(Socket& sock, std::size_t need);

  std::string buf_;  ///< bytes [begin_, end_) are received, unread
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace scwc::net
