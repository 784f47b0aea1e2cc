#include "net/scrape.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/request_trace.hpp"

namespace scwc::net {

namespace {

constexpr int kBacklog = 16;
constexpr double kIoTimeoutS = 2.0;  ///< per-connection read/write timeout
constexpr double kSpuriousWakeS = 0.01;  ///< recv bound after a poll wake
constexpr std::size_t kMaxRequestBytes = 8192;
/// Connections read at once; more wait in the listener's backlog.
constexpr std::size_t kMaxOpenClients = 64;

/// A request line holds printable ASCII (and tabs): any other byte before
/// the first CRLF means no valid request can follow.
bool hopeless(std::string_view request) {
  const std::size_t line_end = request.find("\r\n");
  for (const char c : request.substr(0, line_end)) {
    const auto u = static_cast<unsigned char>(c);
    if ((u < 0x20 && c != '\t' && c != '\r') || u >= 0x7f) return true;
  }
  return false;
}

/// True once the request can be answered: headers ended, the read cap is
/// reached, or the request line is already hopeless.
bool request_complete(const std::string& request) {
  return request.size() >= kMaxRequestBytes ||
         request.find("\r\n\r\n") != std::string::npos || hopeless(request);
}

std::string status_line(int code) {
  switch (code) {
    case 200: return "HTTP/1.1 200 OK";
    case 404: return "HTTP/1.1 404 Not Found";
    case 405: return "HTTP/1.1 405 Method Not Allowed";
    case 500: return "HTTP/1.1 500 Internal Server Error";
    default: return "HTTP/1.1 400 Bad Request";
  }
}

std::string build_response(int code, const std::string& content_type,
                           const std::string& body) {
  std::string out = status_line(code);
  out += "\r\nContent-Type: " + content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::add_route(std::string path, std::string content_type,
                             Handler handler) {
  if (running()) {
    throw std::logic_error("ScrapeServer: add_route after start");
  }
  routes_[std::move(path)] =
      Route{std::move(content_type), std::move(handler)};
}

void ScrapeServer::start() {
  if (running()) return;
  listener_.listen(requested_port_, kBacklog);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
}

void ScrapeServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown unblocks accept() without releasing the fd number; close only
  // after the join so the accept thread can never race a recycled
  // descriptor.
  listener_.shutdown_now();
  if (thread_.joinable()) thread_.join();
  listener_.close();
}

void ScrapeServer::accept_loop() {
  set_thread_name("scrape");
  using clock = std::chrono::steady_clock;
  const auto io_timeout = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(kIoTimeoutS));
  // Connections still sending their request. One poll waits on all of them
  // and the listener, so a client that sends nothing delays no other.
  struct Client {
    Socket sock;
    std::string request;
    clock::time_point deadline;
  };
  std::vector<Client> clients;
  std::vector<Socket*> socks;
  char buf[1024];
  while (running()) {
    auto now = clock::now();
    double timeout_s = -1.0;
    socks.clear();
    for (Client& c : clients) {
      socks.push_back(&c.sock);
      const double left = obs::seconds_between(now, c.deadline);
      timeout_s = timeout_s < 0.0 ? left : std::min(timeout_s, left);
    }
    const std::vector<bool> ready = wait_readable(
        socks, clients.size() < kMaxOpenClients ? &listener_ : nullptr,
        timeout_s);
    if (!running()) break;
    now = clock::now();
    for (std::size_t i = clients.size(); i-- > 0;) {
      Client& c = clients[i];
      bool done = now >= c.deadline;
      if (ready[i]) {
        const std::size_t n = c.sock.recv_some(buf, sizeof(buf));
        if (n == 0) done = true;  // clean close or error
        c.request.append(buf, n);
      }
      if (done || request_complete(c.request)) {
        serve_request(c.sock, c.request);
        clients.erase(clients.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (ready.back()) {
      Socket sock = listener_.accept();
      if (!sock.valid()) break;  // stopped, or the listener is gone
      // Readiness came from poll, so a recv never waits; the bound only
      // covers a spurious wake. A peer that stops reading just loses its
      // response after the send bound.
      sock.set_recv_timeout(kSpuriousWakeS);
      sock.set_send_timeout(kIoTimeoutS);
      clients.push_back(Client{std::move(sock), {}, now + io_timeout});
    }
  }
}

void ScrapeServer::serve_request(Socket& sock, const std::string& request) {
  const auto respond = [&sock](int code, const std::string& content_type,
                               const std::string& body) {
    (void)sock.send_all(build_response(code, content_type, body));
  };
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    // No complete request line: bytes no request line can hold get a 400,
    // a request cut short (timeout, close, size cap) is just dropped.
    if (!hopeless(request)) return;
    requests_.fetch_add(1, std::memory_order_relaxed);
    respond(400, "text/plain", "bad request line\n");
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP PATH SP VERSION
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    respond(400, "text/plain", "bad request line\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);  // query strings are accepted and ignored
  }

  if (method != "GET") {
    respond(405, "text/plain", "GET only on this port\n");
    return;
  }
  const auto it = routes_.find(path);
  if (it == routes_.end()) {
    std::string body = "no route " + path + "; try:\n";
    for (const auto& [p, route] : routes_) body += "  " + p + "\n";
    respond(404, "text/plain", body);
    return;
  }
  try {
    respond(200, it->second.content_type, it->second.handler());
  } catch (const std::exception& e) {
    respond(500, "text/plain",
            std::string("handler failed: ") + e.what() + "\n");
  }
}

}  // namespace scwc::net
