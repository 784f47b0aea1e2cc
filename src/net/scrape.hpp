// Minimal HTTP/1.1 scrape endpoint (GET-only) over net::TcpListener.
//
// Just enough HTTP to let `curl` and a Prometheus scraper pull /metrics,
// /healthz and /vars from a live serving process — deliberately NOT a web
// framework: one thread waits in one poll on the listener and every
// connection still sending its request (net::wait_readable), so a client
// that connects and sends nothing delays no other; each request is read
// within 2 s. GET only, no keep-alive, no TLS. Handlers are
// registered before start() and produce the whole body per request; a
// throwing handler maps to a 500. The transport is net::Socket, so this
// file holds only the HTTP part.
//
// Security posture (DESIGN.md §7): TcpListener binds 127.0.0.1 only — the
// endpoint exposes operational detail and has no auth. Port 0 requests an
// ephemeral port; port() reports the bound one (tests rely on this to
// avoid collisions).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "net/socket.hpp"

namespace scwc::net {

class ScrapeServer {
 public:
  /// Returns the response body; content type comes from registration.
  using Handler = std::function<std::string()>;

  /// `port` 0 → kernel-assigned ephemeral port.
  explicit ScrapeServer(std::uint16_t port = 0) : requested_port_(port) {}
  ~ScrapeServer();  // stops and joins

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Registers `path` (exact match, query string ignored). Must be called
  /// before start(); throws std::logic_error afterwards.
  void add_route(std::string path, std::string content_type, Handler handler);

  /// Binds, listens and launches the accept thread. Throws scwc::Error
  /// when the socket cannot be set up (running() stays false).
  void start();

  /// Stops the accept loop and joins the thread. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound port (resolves port-0 requests); 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::string content_type;
    Handler handler;
  };

  void accept_loop();
  /// Answers one connection's request (or drops it) and returns.
  void serve_request(Socket& sock, const std::string& request);

  // Lock-free by construction, not by accident: requested_port_/routes_
  // and the listener's fd/port are written only before start() spawns the
  // accept thread and are read-only afterwards (add_route refuses
  // registration once running; stop() closes the listener only after the
  // join). Cross-thread state is limited to the two atomics. If routes
  // ever become mutable at runtime, add a scwc::Mutex and GUARDED_BY here.
  std::uint16_t requested_port_;
  std::map<std::string, Route> routes_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_{0};
  TcpListener listener_;
  std::thread thread_;
};

}  // namespace scwc::net
