// ScrapeServer (src/net/scrape.*): a real TCP client connects to the
// loopback listener and issues HTTP/1.0 GETs — route dispatch, content
// types, 404/405 handling, handler exceptions, concurrent and hostile
// clients, bind failure, and idempotent shutdown. The client side goes
// through net::Socket so the test itself honours the no-raw-socket-calls
// rule.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/scrape.hpp"
#include "net/socket.hpp"

namespace scwc::net {
namespace {

/// Minimal blocking HTTP client: sends `request` to 127.0.0.1:`port`,
/// returns everything the server wrote before closing ("" on failure).
std::string http_exchange(std::uint16_t port, const std::string& request) {
  Socket sock = connect_loopback(port, 5.0);
  if (!sock.valid()) return "";
  if (!sock.send_all(request)) return "";
  // Read to EOF: recv_some returns 0 once the server closes.
  std::string response;
  char buf[4096];
  while (const std::size_t got = sock.recv_some(buf, sizeof(buf))) {
    response.append(buf, got);
  }
  return response;
}

std::string get(std::uint16_t port, const std::string& path) {
  return http_exchange(port,
                       "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n");
}

class ScrapeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.add_route("/metrics", "text/plain; version=0.0.4",
                      [] { return std::string("metric_a 1\n"); });
    server_.add_route("/healthz", "application/json",
                      [] { return std::string("{\"status\":\"ok\"}\n"); });
    server_.add_route("/boom", "text/plain",
                      []() -> std::string { throw std::runtime_error("x"); });
    server_.start();
  }
  void TearDown() override { server_.stop(); }

  ScrapeServer server_;  // port 0 → ephemeral
};

TEST_F(ScrapeServerTest, ServesRegisteredRoute) {
  const std::string response = get(server_.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("metric_a 1\n"), std::string::npos);
  EXPECT_GE(server_.requests_served(), 1u);
}

TEST_F(ScrapeServerTest, ServesJsonRoute) {
  const std::string response = get(server_.port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(ScrapeServerTest, QueryStringIsIgnoredForRouting) {
  const std::string response = get(server_.port(), "/metrics?format=text");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
}

TEST_F(ScrapeServerTest, UnknownPathIs404WithRouteList) {
  const std::string response = get(server_.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
  EXPECT_NE(response.find("/metrics"), std::string::npos);  // route list
}

TEST_F(ScrapeServerTest, NonGetIs405) {
  const std::string response = http_exchange(
      server_.port(), "POST /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos);
}

TEST_F(ScrapeServerTest, ThrowingHandlerIs500NotACrash) {
  const std::string response = get(server_.port(), "/boom");
  EXPECT_NE(response.find("500"), std::string::npos);
  // And the server keeps serving afterwards.
  EXPECT_NE(get(server_.port(), "/metrics").find("200 OK"),
            std::string::npos);
}

TEST_F(ScrapeServerTest, SequentialRequestsAllSucceed) {
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(get(server_.port(), "/metrics").find("200 OK"),
              std::string::npos);
  }
  EXPECT_GE(server_.requests_served(), 16u);
}

TEST(ScrapeServer, StopIsIdempotentAndRestartableInstancesCoexist) {
  ScrapeServer a;
  a.add_route("/a", "text/plain", [] { return std::string("a"); });
  a.start();
  ScrapeServer b;
  b.add_route("/b", "text/plain", [] { return std::string("b"); });
  b.start();
  EXPECT_NE(a.port(), b.port());
  EXPECT_NE(get(a.port(), "/a").find("200 OK"), std::string::npos);
  EXPECT_NE(get(b.port(), "/b").find("200 OK"), std::string::npos);
  a.stop();
  a.stop();  // idempotent
  // b is unaffected by a's shutdown.
  EXPECT_NE(get(b.port(), "/b").find("200 OK"), std::string::npos);
  b.stop();
  EXPECT_FALSE(a.running());
  EXPECT_FALSE(b.running());
}

TEST_F(ScrapeServerTest, ConcurrentClientsAllGetCompleteResponses) {
  // N threads hammering the same route: every response must be complete
  // and well-formed — no interleaving, no dropped connections under load.
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 8;
  std::vector<std::thread> clients;
  std::vector<int> ok_counts(kThreads, 0);
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([this, t, &ok_counts] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string response = get(server_.port(), "/metrics");
        if (response.find("200 OK") != std::string::npos &&
            response.find("metric_a 1\n") != std::string::npos) {
          ++ok_counts[t];
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok_counts[t], kRequestsPerThread) << "client thread " << t;
  }
  EXPECT_GE(server_.requests_served(),
            static_cast<std::size_t>(kThreads * kRequestsPerThread));
}

TEST_F(ScrapeServerTest, GarbageRequestDoesNotKillTheServer) {
  // Binary junk with no request line: the server must drop or 400 the
  // connection and keep serving real clients afterwards.
  const std::string junk("\x00\x01\xfe\xff\x7f no http here \x05", 20);
  (void)http_exchange(server_.port(), junk);
  (void)http_exchange(server_.port(), "\r\n\r\n");          // empty request
  (void)http_exchange(server_.port(), "GET\r\n\r\n");       // malformed line
  EXPECT_NE(get(server_.port(), "/metrics").find("200 OK"),
            std::string::npos);
}

TEST_F(ScrapeServerTest, SilentConnectionDoesNotDelayAGoodScrape) {
  // A client that connects and sends nothing holds its connection for the
  // whole 2 s read bound; a scrape arriving behind it is answered at once.
  Socket silent = connect_loopback(server_.port(), 5.0);
  ASSERT_TRUE(silent.valid());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NE(get(server_.port(), "/metrics").find("200 OK"),
            std::string::npos);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            0.1);
}

TEST_F(ScrapeServerTest, OversizedRequestIsBoundedNotBuffered) {
  // A request far beyond the server's 8 KiB read cap: it must answer (or
  // close) without buffering the whole flood, and keep serving afterwards.
  std::string flood = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  flood.append(1 << 20, 'a');  // 1 MiB header, never a terminating CRLFCRLF
  flood += "\r\n\r\n";
  (void)http_exchange(server_.port(), flood);
  EXPECT_NE(get(server_.port(), "/metrics").find("200 OK"),
            std::string::npos);
}

TEST(ScrapeServer, StartIsIdempotentAndRoutesLockAfterStart) {
  ScrapeServer s;
  s.add_route("/x", "text/plain", [] { return std::string("x"); });
  s.start();
  const std::uint16_t port = s.port();
  s.start();  // no-op, keeps the same listener
  EXPECT_EQ(s.port(), port);
  EXPECT_THROW(
      s.add_route("/late", "text/plain", [] { return std::string(); }),
      std::logic_error);
  s.stop();
}

TEST(ScrapeServer, BindFailureThrowsAndLeavesTheServerStopped) {
  // Another listener already holds the port: start() must surface the
  // bind failure as scwc::Error, not a half-started server.
  TcpListener holder;
  holder.listen(0);
  ScrapeServer s(holder.port());
  s.add_route("/x", "text/plain", [] { return std::string("x"); });
  EXPECT_THROW(s.start(), scwc::Error);
  EXPECT_FALSE(s.running());
  s.stop();  // no-op: nothing was started
  EXPECT_FALSE(s.running());
  EXPECT_EQ(s.requests_served(), 0u);
}

}  // namespace
}  // namespace scwc::net
