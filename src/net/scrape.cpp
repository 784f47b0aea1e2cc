#include "net/scrape.hpp"

#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace scwc::net {

namespace {

constexpr int kBacklog = 16;
constexpr double kIoTimeoutS = 2.0;  ///< per-connection read/write timeout
constexpr std::size_t kMaxRequestBytes = 8192;

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
  while (running()) {
    Socket sock = listener_.accept();
    if (!sock.valid()) break;  // stopped, or the listener is gone
    serve_connection(sock);
  }
}

void ScrapeServer::serve_connection(Socket& sock) {
  sock.set_io_timeout(kIoTimeoutS);

  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const std::size_t n = sock.recv_some(buf, sizeof(buf));
    if (n == 0) break;  // timeout, error or clean close
    request.append(buf, n);
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // no complete request line
  requests_.fetch_add(1, std::memory_order_relaxed);

  // A peer that stops reading just loses its response.
  const auto respond = [&sock](int code, const std::string& content_type,
                               const std::string& body) {
    (void)sock.send_all(build_response(code, content_type, body));
  };

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
