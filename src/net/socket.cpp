#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace scwc::net {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// The abstract-namespace address of local id `id`: a leading NUL, then
/// "scwc-shard-<id>" with no terminator (the length delimits it).
struct LocalAddr {
  explicit LocalAddr(std::uint16_t id) {
    addr.sun_family = AF_UNIX;
    const std::string name = "scwc-shard-" + std::to_string(id);
    std::memcpy(addr.sun_path + 1, name.data(), name.size());
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                 name.size());
  }
  [[nodiscard]] const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&addr);
  }
  sockaddr_un addr{};
  socklen_t len = 0;
};

/// Opens a `domain` stream socket and connects it to `addr`, retrying until
/// `deadline_s` of wall time passes; -1 on timeout.
int connect_until(int domain, const sockaddr* addr, socklen_t len,
                  double deadline_s) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  while (true) {
    const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, addr, len) == 0) return fd;
    ::close(fd);
    if (clock::now() >= deadline) return -1;
    // The server process may still be starting; back off briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      recv_timeout_ms_(other.recv_timeout_ms_) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    recv_timeout_ms_ = other.recv_timeout_ms_;
  }
  return *this;
}

void Socket::set_io_timeout(double seconds) noexcept {
  set_recv_timeout(seconds);
  set_send_timeout(seconds);
}

void Socket::set_recv_timeout(double seconds) noexcept {
  recv_timeout_ms_ =
      seconds > 0.0 ? static_cast<int>(std::ceil(seconds * 1e3)) : -1;
}

void Socket::set_send_timeout(double seconds) noexcept {
  if (fd_ < 0) return;
  if (!(seconds > 0.0)) seconds = 0.0;  // {0,0} restores blocking sends
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

std::size_t Socket::send_buffer_bytes() const noexcept {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  if (fd_ < 0 || ::getsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, &len) != 0 ||
      bytes < 0) {
    return 0;
  }
  return static_cast<std::size_t>(bytes);
}

bool Socket::send_all(std::string_view data) noexcept {
  return send_some(data, true).has_value();
}

std::optional<std::size_t> Socket::send_some(std::string_view data,
                                             bool wait) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | (wait ? 0 : MSG_DONTWAIT));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (!wait && n < 0 && errno == EAGAIN) break;  // the peer is behind
      return std::nullopt;  // peer gone, or SO_SNDTIMEO expired (EAGAIN)
    }
    off += static_cast<std::size_t>(n);
  }
  return off;
}

std::size_t Socket::recv_some(char* buf, std::size_t cap) noexcept {
  while (true) {
    const ssize_t got = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) return 0;  // EOF
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return 0;  // reset, closed
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, recv_timeout_ms_);
    if (ready == 0) return 0;  // timeout
    if (ready < 0 && errno != EINTR) return 0;
  }
}

void Socket::shutdown_now() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { close(); }

Socket Listener::accept() noexcept {
  while (fd_ >= 0) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    break;  // shutdown_now() or a terminal accept failure
  }
  return Socket();
}

void Listener::shutdown_now() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<bool> wait_readable(std::span<Socket* const> socks,
                                const Listener* listener, double timeout_s) {
  std::vector<pollfd> fds;
  fds.reserve(socks.size() + 1);
  for (const Socket* sock : socks) fds.push_back(pollfd{sock->fd_, POLLIN, 0});
  fds.push_back(pollfd{listener != nullptr ? listener->fd_ : -1, POLLIN, 0});
  const int timeout_ms =
      timeout_s < 0.0 ? -1 : static_cast<int>(std::ceil(timeout_s * 1e3));
  std::vector<bool> ready(fds.size(), false);
  if (::poll(fds.data(), fds.size(), timeout_ms) > 0) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      ready[i] = fds[i].fd >= 0 && fds[i].revents != 0;
    }
  }
  return ready;
}

void TcpListener::listen(std::uint16_t port, int backlog) {
  SCWC_REQUIRE(fd_ < 0, "TcpListener: already listening");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SCWC_REQUIRE(fd_ >= 0, "TcpListener: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, backlog) != 0) {
    const int err = errno;
    close();
    SCWC_FAIL(std::string("TcpListener: bind/listen: ") +
              std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

void LocalListener::listen(std::uint16_t id, int backlog) {
  SCWC_REQUIRE(fd_ < 0, "LocalListener: already listening");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SCWC_REQUIRE(fd_ >= 0, "LocalListener: socket() failed");
  // Id 0: probe every id from a start spread by process id, so concurrent
  // fleets on one host rarely contend for the same names.
  constexpr std::uint32_t kIds = 65535;
  static std::atomic<std::uint32_t> next_start{
      static_cast<std::uint32_t>(::getpid()) * 2654435761U};
  const std::uint32_t start =
      id != 0 ? id - 1U : next_start.fetch_add(1) % kIds;
  int err = 0;
  for (std::uint32_t i = 0; i < (id != 0 ? 1U : kIds); ++i) {
    const auto candidate = static_cast<std::uint16_t>(1 + (start + i) % kIds);
    const LocalAddr addr(candidate);
    if (::bind(fd_, addr.get(), addr.len) == 0) {
      err = ::listen(fd_, backlog) == 0 ? 0 : errno;
      id_ = candidate;
      break;
    }
    err = errno;
    if (err != EADDRINUSE) break;
  }
  if (err != 0) {
    close();
    id_ = 0;
    SCWC_FAIL("LocalListener: bind/listen id " + std::to_string(id) + ": " +
              std::strerror(err));
  }
}

Socket connect_loopback(std::uint16_t port, double deadline_s) {
  const sockaddr_in addr = loopback_addr(port);
  return Socket(connect_until(AF_INET,
                              reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr), deadline_s));
}

Socket connect_local(std::uint16_t id, double deadline_s) {
  const LocalAddr addr(id);
  return Socket(connect_until(AF_UNIX, addr.get(), addr.len, deadline_s));
}

bool write_frame(Socket& sock, FrameType type, std::string_view payload) {
  return sock.send_all(encode_frame(type, payload));
}

std::optional<Frame> FrameReader::next(Socket& sock) {
  if (!fill(sock, kHeaderBytes)) return std::nullopt;
  // The header is validated (payload_len against its cap included) before
  // fill() may grow the buffer to hold the payload.
  const FrameHeader h =
      decode_header(std::string_view(buf_).substr(begin_, kHeaderBytes));
  const std::size_t frame_bytes = kHeaderBytes + h.payload_len;
  if (!fill(sock, frame_bytes)) return std::nullopt;
  std::string payload(buf_, begin_ + kHeaderBytes, h.payload_len);
  begin_ += frame_bytes;
  if (begin_ == end_ && buf_.size() > kRecvChunkBytes) {
    // Give back what one oversized frame (a bundle chunk) made us grow.
    buf_ = std::string();
    begin_ = end_ = 0;
  }
  return assemble_frame(h, std::move(payload));
}

bool FrameReader::fill(Socket& sock, std::size_t need) {
  while (end_ - begin_ < need) {
    // Slide the unread bytes (less than one frame) to the front so the
    // buffer can hold the whole frame and the recv gets the widest window.
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    const std::size_t size = std::max(need, kRecvChunkBytes);
    if (buf_.size() < size) buf_.resize(size);
    const std::size_t got =
        sock.recv_some(buf_.data() + end_, buf_.size() - end_);
    if (got == 0) return false;
    end_ += got;
  }
  return true;
}

}  // namespace scwc::net
