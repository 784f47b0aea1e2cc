#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
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

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::set_io_timeout(double seconds) noexcept {
  if (fd_ < 0) return;
  if (!(seconds > 0.0)) seconds = 0.0;  // {0,0} restores blocking I/O
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool Socket::send_all(std::string_view data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t Socket::recv_some(char* buf, std::size_t cap) noexcept {
  while (true) {
    const ssize_t got = ::recv(fd_, buf, cap, 0);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got < 0 && errno == EINTR) continue;
    return 0;  // EOF, timeout, or peer reset
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

TcpListener::~TcpListener() { close(); }

void TcpListener::listen(std::uint16_t port, int backlog) {
  SCWC_REQUIRE(fd_ < 0, "TcpListener: already listening");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SCWC_REQUIRE(fd_ >= 0, "TcpListener: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd_, backlog) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    SCWC_FAIL(std::string("TcpListener: bind/listen: ") +
              std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

Socket TcpListener::accept() noexcept {
  while (fd_ >= 0) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      // Frames are small and latency-sensitive; never wait for Nagle.
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    break;  // shutdown_now() or a terminal accept failure
  }
  return Socket();
}

void TcpListener::shutdown_now() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_loopback(std::uint16_t port, double deadline_s) {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(deadline_s));
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Socket();
    const sockaddr_in addr = loopback_addr(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    ::close(fd);
    if (clock::now() >= deadline) return Socket();
    // The worker process may still be starting; back off briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
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
