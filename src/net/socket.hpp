// Socket primitives for the sharded serving cluster and the HTTP scrape
// endpoint (net/scrape.*). Router↔worker frames travel over a local
// AF_UNIX stream socket in Linux's abstract namespace, named from the
// shard's 16-bit id (LocalListener / connect_local); TCP on 127.0.0.1
// carries only HTTP (TcpListener / connect_loopback).
//
// This is the only file that makes raw socket syscalls — the
// `no-raw-socket-calls` lint rule enforces it. Everything above (router,
// worker, scrape server, tools, benches) talks through Socket and the
// listeners, the wire protocol in SCWCWIRE frames through
// FrameReader/write_frame, and never sees a file descriptor.
//
// Security posture matches the scrape endpoint (DESIGN.md §7): nothing
// binds beyond this host. The wire protocol carries operational control
// (model swaps, shutdown) and has no auth; an abstract-namespace name, like
// a 127.0.0.1 port, is reachable by every process in the host's network
// namespace, so cross-host serving would need an authenticated transport
// in front.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace scwc::net {

/// Bound on a router↔worker send that makes no progress (the peer stopped
/// reading), on both ends after the handshake; then the sender shuts down.
inline constexpr double kSendTimeoutS = 1.0;

class Listener;

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

  /// set_recv_timeout and set_send_timeout to the same bound.
  void set_io_timeout(double seconds) noexcept;
  /// Bounds each recv_some's wait for data, in seconds; ≤ 0 waits forever.
  /// Call it before a reader thread starts using the socket.
  void set_recv_timeout(double seconds) noexcept;
  /// SO_SNDTIMEO in seconds: a send that makes no progress for this long
  /// fails; ≤ 0 lets it block forever.
  void set_send_timeout(double seconds) noexcept;

  /// SO_SNDBUF as the kernel reports it (0 when it cannot be read).
  [[nodiscard]] std::size_t send_buffer_bytes() const noexcept;

  /// Writes all of `data`; false when the peer is gone or times out.
  [[nodiscard]] bool send_all(std::string_view data) noexcept;
  /// send_all, or with `wait` false only what the socket takes now: the
  /// byte count (short when the peer is behind), nullopt on failure.
  [[nodiscard]] std::optional<std::size_t> send_some(std::string_view data,
                                                     bool wait) noexcept;

  /// One recv of up to `cap` bytes into `buf`: the byte count, or 0 on
  /// EOF, timeout or error. The thread waits in poll(POLLIN), never inside
  /// recv: a reader asleep in recv on an AF_UNIX stream socket is woken
  /// each time the peer drains bytes this side sent (the write-space
  /// wakeup shares the socket's wait queue), and poll filters those out.
  [[nodiscard]] std::size_t recv_some(char* buf, std::size_t cap) noexcept;

  /// Half-closes both directions, unblocking any thread inside recv/send
  /// on this socket (used for cross-thread shutdown; close() follows once
  /// the blocked thread has returned).
  void shutdown_now() noexcept;

  void close() noexcept;

 private:
  friend std::vector<bool> wait_readable(std::span<Socket* const> socks,
                                         const Listener* listener,
                                         double timeout_s);

  int fd_ = -1;
  int recv_timeout_ms_ = -1;  ///< poll() bound; -1 waits forever
};

/// What both listeners share: accept, cross-thread shutdown, close.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Blocks for the next connection; an invalid Socket means the listener
  /// was shut down (or the accept failed terminally).
  [[nodiscard]] Socket accept() noexcept;

  [[nodiscard]] bool listening() const noexcept { return fd_ >= 0; }

  /// Unblocks accept() from another thread; the listener is dead after.
  void shutdown_now() noexcept;
  void close() noexcept;

 protected:
  friend std::vector<bool> wait_readable(std::span<Socket* const> socks,
                                         const Listener* listener,
                                         double timeout_s);

  int fd_ = -1;
};

/// Waits in one poll until one of `socks` has bytes, EOF or an error to
/// read, or `listener` (may be null) has a connection to accept, for at
/// most `timeout_s` (< 0 waits forever). One flag per socket, then one for
/// the listener; all false on timeout. Lets one thread serve a listener
/// and its open connections without any of them blocking the others.
[[nodiscard]] std::vector<bool> wait_readable(std::span<Socket* const> socks,
                                              const Listener* listener,
                                              double timeout_s);

/// TCP listener bound to 127.0.0.1. Port 0 requests an ephemeral port;
/// port() reports the bound one.
class TcpListener : public Listener {
 public:
  /// Binds + listens. Throws scwc::Error when the socket cannot be set up.
  void listen(std::uint16_t port, int backlog = 16);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::uint16_t port_ = 0;
};

/// AF_UNIX stream listener whose abstract-namespace name is derived from a
/// 16-bit id, the address a router dials with connect_local. Id 0 picks a
/// free id ≥ 1, retrying past names already bound; id() reports it.
class LocalListener : public Listener {
 public:
  /// Binds + listens. Throws scwc::Error, leaving the listener closed,
  /// when the name is taken or the socket cannot be set up.
  void listen(std::uint16_t id, int backlog = 16);

  [[nodiscard]] std::uint16_t id() const noexcept { return id_; }

 private:
  std::uint16_t id_ = 0;
};

/// Connects to 127.0.0.1:`port`, retrying (connection refused counts as
/// "server not up yet") until `deadline_s` of wall time passes. Returns an
/// invalid Socket on timeout.
[[nodiscard]] Socket connect_loopback(std::uint16_t port, double deadline_s);

/// Connects to the LocalListener bound to `id`, retrying (no listener yet
/// counts as "worker not up yet") until `deadline_s` of wall time passes.
/// Returns an invalid Socket on timeout.
[[nodiscard]] Socket connect_local(std::uint16_t id, double deadline_s);

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

  /// Bytes received and not yet taken as frames; 0 means the next frame
  /// needs a recv.
  [[nodiscard]] std::size_t buffered() const noexcept { return end_ - begin_; }

 private:
  static constexpr std::size_t kRecvChunkBytes = 64 * 1024;

  /// Receives until `need` unconsumed bytes are buffered; false on EOF.
  bool fill(Socket& sock, std::size_t need);

  std::string buf_;  ///< bytes [begin_, end_) are received, unread
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

}  // namespace scwc::net
