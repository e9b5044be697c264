// umon::serve tests: parser robustness (torn / pipelined / oversized /
// malformed input as plain string tests), live-socket behavior of the epoll
// server (status mapping, HEAD, slowloris idle close, SSE broadcast,
// shutdown handshake), response determinism across identically scripted
// servers, and a TSan-targeted concurrency stress (ServeConcurrency.*).
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/endpoints.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"

namespace umon::serve {
namespace {

// --- raw-socket test client -------------------------------------------------

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

/// Read until the connection closes (or the 5 s socket timeout).
std::string recv_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// Read until `needle` shows up in the accumulated bytes (keep-alive and
/// SSE reads, where EOF never comes), for at most 10 s: SSE keepalive
/// comments reset the per-recv timeout, so it alone cannot end the wait.
std::string recv_until(int fd, std::string_view needle) {
  std::string out;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (out.find(needle) == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string get_request(const std::string& path, bool keep_alive = false) {
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) req += "Connection: close\r\n";
  req += "\r\n";
  return req;
}

/// One-shot request: connect, send, read to EOF.
std::string fetch(std::uint16_t port, const std::string& raw) {
  const int fd = dial(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  send_all(fd, raw);
  std::string out = recv_to_eof(fd);
  ::close(fd);
  return out;
}

// --- parser (no sockets) ----------------------------------------------------

TEST(ServeHttp, ParserNeedsMoreOnTornInput) {
  const std::string full = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpRequest req;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_EQ(parse_request(full.substr(0, cut), 8192, req),
              ParseStatus::kNeedMore)
        << "cut=" << cut;
  }
  ASSERT_EQ(parse_request(full, 8192, req), ParseStatus::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.consumed, full.size());
  EXPECT_TRUE(req.keep_alive);
}

TEST(ServeHttp, ParserHandlesPipelinedRequests) {
  const std::string a = "GET /a HTTP/1.1\r\n\r\n";
  const std::string b = "GET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
  const std::string buf = a + b;
  HttpRequest r1;
  ASSERT_EQ(parse_request(buf, 8192, r1), ParseStatus::kOk);
  EXPECT_EQ(r1.path, "/a");
  EXPECT_EQ(r1.consumed, a.size());
  HttpRequest r2;
  ASSERT_EQ(parse_request(std::string_view(buf).substr(r1.consumed), 8192, r2),
            ParseStatus::kOk);
  EXPECT_EQ(r2.path, "/b");
  ASSERT_EQ(r2.params.size(), 1u);
  EXPECT_EQ(r2.params[0].first, "x");
  EXPECT_FALSE(r2.keep_alive);
}

TEST(ServeHttp, ParserDecodesQueryParams) {
  HttpRequest req;
  ASSERT_EQ(parse_request("GET /api/v1/query?op=sum&flow=1%3A2%3A3%3A4"
                          "&flow=5:6:7:8&list=flows HTTP/1.1\r\n\r\n",
                          8192, req),
            ParseStatus::kOk);
  ASSERT_EQ(req.params.size(), 4u);
  EXPECT_EQ(req.params[1].second, "1:2:3:4");  // percent-decoded
  EXPECT_EQ(req.params[2].second, "5:6:7:8");  // repeated key preserved
  EXPECT_NE(req.param("list"), nullptr);
  EXPECT_EQ(*req.param("op"), "sum");
}

TEST(ServeHttp, ParserRejectsBodiesAndBadVersions) {
  HttpRequest req;
  EXPECT_EQ(parse_request("POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\n",
                          8192, req),
            ParseStatus::kMalformed);
  EXPECT_EQ(parse_request("GET / HTTP/2.0\r\n\r\n", 8192, req),
            ParseStatus::kMalformed);
  EXPECT_EQ(parse_request("BOGUS\r\n\r\n", 8192, req),
            ParseStatus::kMalformed);
}

TEST(ServeHttp, ParserCapsHeaderBytes) {
  std::string big = "GET / HTTP/1.1\r\nX-Junk: ";
  big.append(9000, 'a');
  HttpRequest req;
  EXPECT_EQ(parse_request(big, 8192, req), ParseStatus::kTooLarge);
}

TEST(ServeHttp, ResponsesAreDateFreeAndSseFramesCompose) {
  const std::string r = make_response(200, "text/plain", "hi", true);
  EXPECT_NE(r.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_EQ(r.find("Date:"), std::string::npos);
  EXPECT_EQ(make_sse_event("tick", "a\nb"),
            "event: tick\ndata: a\ndata: b\n\n");
  const std::string allow = make_response(405, "text/plain", "", true);
  EXPECT_NE(allow.find("Allow: GET, HEAD\r\n"), std::string::npos);
}

// --- live server ------------------------------------------------------------

class ServeHttpSocket : public ::testing::Test {
 protected:
  void Start(ServeConfig cfg = {}) {
    cfg.port = 0;
    server_ = std::make_unique<Server>(cfg);
    Services svc;
    endpoints_ = std::make_unique<Endpoints>(*server_, svc);
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override {
    if (server_) server_->stop();
  }
  std::unique_ptr<Server> server_;
  std::unique_ptr<Endpoints> endpoints_;
};

TEST_F(ServeHttpSocket, StatusMapping) {
  Start();
  EXPECT_NE(fetch(server_->port(), get_request("/")).find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(fetch(server_->port(), get_request("/nope")).find("HTTP/1.1 404"),
            std::string::npos);
  const std::string post =
      "POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
  const std::string r405 = fetch(server_->port(), post);
  EXPECT_NE(r405.find("HTTP/1.1 405"), std::string::npos);
  EXPECT_NE(r405.find("Allow: GET, HEAD"), std::string::npos);
  // No store wired -> query maps to 503 (umon_query exit 1).
  EXPECT_NE(fetch(server_->port(), get_request("/api/v1/query?op=sum"))
                .find("HTTP/1.1 503"),
            std::string::npos);
  // Bad parameter -> 400 (umon_query exit 2). Parameters are validated
  // before the store dependency, mirroring umon_query's usage-before-store
  // error ordering.
  EXPECT_NE(fetch(server_->port(),
                  get_request("/api/v1/query?resolution=boom"))
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(ServeHttpSocket, HeadStripsBody) {
  Start();
  const std::string r = fetch(
      server_->port(), "HEAD / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(r.find("Content-Length:"), std::string::npos);
  const std::size_t hdr_end = r.find("\r\n\r\n");
  ASSERT_NE(hdr_end, std::string::npos);
  EXPECT_EQ(r.size(), hdr_end + 4) << "HEAD response carried a body";
}

TEST_F(ServeHttpSocket, TornRequestAcrossWrites) {
  Start();
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  const std::string req = get_request("/metrics");
  for (std::size_t i = 0; i < req.size(); i += 7) {
    send_all(fd, std::string_view(req).substr(i, 7));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::string r = recv_to_eof(fd);
  ::close(fd);
  EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(r.find("umon_serve_requests_total"), std::string::npos);
}

TEST_F(ServeHttpSocket, PipelinedRequestsAnswerInOrder) {
  Start();
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, get_request("/", /*keep_alive=*/true) + get_request("/nope"));
  const std::string r = recv_to_eof(fd);
  ::close(fd);
  const std::size_t first = r.find("HTTP/1.1 200");
  const std::size_t second = r.find("HTTP/1.1 404");
  EXPECT_NE(first, std::string::npos);
  EXPECT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST_F(ServeHttpSocket, OversizedHeaderGets431) {
  ServeConfig cfg;
  cfg.max_request_bytes = 256;
  Start(cfg);
  std::string junk = "GET / HTTP/1.1\r\nX-Junk: ";
  junk.append(1024, 'a');
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, junk);
  const std::string r = recv_to_eof(fd);  // server closes after the 431
  ::close(fd);
  EXPECT_NE(r.find("HTTP/1.1 431"), std::string::npos);
}

TEST_F(ServeHttpSocket, MalformedRequestGets400) {
  Start();
  EXPECT_NE(fetch(server_->port(), "BOGUS\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(ServeHttpSocket, SlowlorisConnectionIsClosed) {
  ServeConfig cfg;
  cfg.idle_timeout = 100 * kMilli;
  Start(cfg);
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET / HT");  // never finish the request
  // recv returns 0 (EOF) once the idle sweep reaps the connection; the
  // 5 s socket timeout bounds the wait if it never happens.
  const std::string r = recv_to_eof(fd);
  ::close(fd);
  EXPECT_TRUE(r.empty());
  const auto samples = server_->registry().snapshot();
  bool reaped = false;
  for (const auto& s : samples) {
    if (s.name == "umon_serve_idle_closed_total" && s.counter_value > 0) {
      reaped = true;
    }
  }
  EXPECT_TRUE(reaped);
}

TEST_F(ServeHttpSocket, SnapshotSlotsServePublishedBytes) {
  Start();
  EXPECT_NE(fetch(server_->port(), get_request("/health"))
                .find("HTTP/1.1 404"),
            std::string::npos);
  server_->set_snapshot("health_jsonl", "{\"type\":\"header\"}\n");
  const std::string r = fetch(server_->port(), get_request("/health"));
  EXPECT_NE(r.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(r.find("{\"type\":\"header\"}"), std::string::npos);
  EXPECT_NE(r.find("application/x-ndjson"), std::string::npos);
}

TEST_F(ServeHttpSocket, SseHelloKeepaliveAndBroadcast) {
  ServeConfig cfg;
  cfg.sse_keepalive_period = 100 * kMilli;
  Start(cfg);
  server_->set_snapshot("status", "{\"phase\":\"test\"}");
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  send_all(fd, get_request("/api/v1/stream", /*keep_alive=*/true));
  const std::string head = recv_until(fd, "\n\n");
  EXPECT_NE(head.find("text/event-stream"), std::string::npos);
  EXPECT_NE(head.find("event: hello"), std::string::npos);
  EXPECT_NE(head.find("{\"phase\":\"test\"}"), std::string::npos);
  server_->broadcast_sse("tick", "{\"t\":1}");
  const std::string tick = recv_until(fd, "event: tick");
  EXPECT_NE(tick.find("event: tick"), std::string::npos);
  // Idle stream: a comment keepalive must arrive (liveness for proxies).
  const std::string ka = recv_until(fd, ": keepalive");
  EXPECT_NE(ka.find(": keepalive"), std::string::npos);
  ::close(fd);
}

TEST_F(ServeHttpSocket, ShutdownHandshakeReachesDriver) {
  Start();
  EXPECT_FALSE(server_->shutdown_requested());
  const std::string r =
      fetch(server_->port(), get_request("/api/v1/shutdown"));
  EXPECT_NE(r.find("{\"ok\":true}"), std::string::npos);
  EXPECT_TRUE(server_->shutdown_requested());
}

// --- overload protection ----------------------------------------------------

/// Self-cleaning scratch directory for the query-shedding tests (they need
/// a real store so /api/v1/query reaches the admission controller).
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "./serve_test_%s_%d", tag.c_str(),
                  static_cast<int>(::getpid()));
    path = buf;
    remove_all();
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() { remove_all(); }
  void remove_all() const {
    DIR* d = ::opendir(path.c_str());
    if (d != nullptr) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

std::unique_ptr<store::Store> make_query_store(const std::string& dir) {
  store::StoreConfig cfg;
  cfg.dir = dir;
  auto st = store::Store::open(cfg);
  EXPECT_NE(st, nullptr);
  if (st) {
    const FlowKey flow{1, 2, 80, 443, 6};
    const std::vector<std::pair<WindowId, double>> wins = {{10, 1.0},
                                                           {11, 2.0}};
    st->append_sparse(flow, wins);
    EXPECT_TRUE(st->seal_epoch());
  }
  return st;
}

HttpRequest parsed(const std::string& target) {
  HttpRequest req;
  EXPECT_EQ(parse_request("GET " + target + " HTTP/1.1\r\n\r\n", 8192, req),
            ParseStatus::kOk)
      << target;
  return req;
}

std::uint64_t counter_value(telemetry::MetricRegistry& reg,
                            std::string_view name) {
  for (const auto& s : reg.snapshot()) {
    if (s.name == name) return s.counter_value;
  }
  return 0;
}

TEST(ServeOverload, AdmissionShedsUncachedKeepsCacheAndCheapEndpoints) {
  TempDir dir("shed_route");
  auto st = make_query_store(dir.path);
  ASSERT_NE(st, nullptr);
  Server server{ServeConfig{}};
  Services svc;
  svc.store = st.get();
  svc.store_dir = dir.path;
  Endpoints ep{server, svc};

  LoadHint calm;
  LoadHint storm;
  storm.inflight = 99;
  storm.shed_expensive = true;

  const std::string q = "/api/v1/query?op=sum&from_us=0&to_us=100000";
  // Calm: the miss runs the engine and primes the response cache.
  EXPECT_EQ(ep.route(parsed(q), calm).response.status, 200);
  // Overloaded: the cache hit is cheap and still serves.
  EXPECT_EQ(ep.route(parsed(q), storm).response.status, 200);
  // Overloaded: a miss (different resolution), list=flows, and the
  // default-range extent scan are all expensive -> 503 + Retry-After.
  const HttpResponse miss =
      ep.route(parsed(q + "&resolution=16"), storm).response;
  EXPECT_EQ(miss.status, 503);
  EXPECT_EQ(miss.extra_headers, "Retry-After: 1\r\n");
  EXPECT_EQ(ep.route(parsed("/api/v1/query?list=flows"), storm)
                .response.status,
            503);
  EXPECT_EQ(ep.route(parsed("/api/v1/query?op=sum"), storm).response.status,
            503);
  // Cheap always-on endpoints are never shed.
  EXPECT_EQ(ep.route(parsed("/metrics"), storm).response.status, 200);
  EXPECT_EQ(ep.route(parsed("/"), storm).response.status, 200);
  EXPECT_EQ(counter_value(server.registry(), "umon_serve_shed_total"), 3u);
}

TEST(ServeHttp, QueryCacheHitsAndGenerationInvalidation) {
  TempDir dir("qcache");
  auto st = make_query_store(dir.path);
  ASSERT_NE(st, nullptr);
  Server server{ServeConfig{}};
  Services svc;
  svc.store = st.get();
  svc.store_dir = dir.path;
  Endpoints ep{server, svc};
  const LoadHint calm;

  // One bucket over the whole store: windows 10 and 11 hold 1 + 2 bytes.
  const std::string range =
      "/api/v1/query?from_us=0&to_us=100000&resolution=100000";
  const std::string q = range + "&op=sum";
  const HttpResponse first = ep.route(parsed(q), calm).response;
  ASSERT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"bytes\":3.0"), std::string::npos)
      << first.body;
  EXPECT_EQ(ep.cache_stats().misses, 1u);
  EXPECT_EQ(ep.cache_stats().hits, 0u);

  // The repeat is answered from the cache with the same bytes.
  EXPECT_EQ(ep.route(parsed(q), calm).response.body, first.body);
  EXPECT_EQ(ep.cache_stats().hits, 1u);

  // A different query is a different fingerprint, and the same query in
  // another format is a different body: both miss.
  EXPECT_EQ(ep.route(parsed(range + "&op=max"), calm).response.status, 200);
  EXPECT_EQ(ep.route(parsed(q + "&format=csv"), calm).response.status, 200);
  EXPECT_EQ(ep.cache_stats().misses, 3u);
  EXPECT_EQ(ep.cache_stats().hits, 1u);

  // New sealed data bumps the generation: the cached body stops matching
  // and the fresh one sees the new window.
  const FlowKey flow{1, 2, 80, 443, 6};
  st->append_sparse(flow, std::vector<std::pair<WindowId, double>>{
                              {static_cast<WindowId>(12), 4.0}});
  ASSERT_TRUE(st->seal_epoch());
  const HttpResponse after = ep.route(parsed(q), calm).response;
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(ep.cache_stats().misses, 4u);
  EXPECT_EQ(ep.cache_stats().hits, 1u);
  EXPECT_NE(after.body.find("\"bytes\":7.0"), std::string::npos)
      << after.body;
}

TEST(ServeOverload, SocketShedCarriesRetryAfterHeader) {
  TempDir dir("shed_sock");
  auto st = make_query_store(dir.path);
  ASSERT_NE(st, nullptr);
  ServeConfig cfg;
  cfg.port = 0;
  cfg.max_inflight_requests = 0;  // every dispatch sees shed_expensive
  Server server{cfg};
  Services svc;
  svc.store = st.get();
  svc.store_dir = dir.path;
  Endpoints ep{server, svc};
  ASSERT_TRUE(server.start());

  const std::string shed = fetch(
      server.port(),
      get_request("/api/v1/query?op=sum&from_us=0&to_us=100000"));
  EXPECT_NE(shed.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(shed.find("Retry-After: 1\r\n"), std::string::npos);
  // /metrics answers under the same load policy and reports the shed.
  const std::string metrics = fetch(server.port(), get_request("/metrics"));
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("umon_serve_shed_total 1"), std::string::npos);
  server.stop();
}

TEST_F(ServeHttpSocket, PipeliningBackpressureStillAnswersEveryRequest) {
  ServeConfig cfg;
  cfg.max_pipelined_requests = 2;
  Start(cfg);
  const int fd = dial(server_->port());
  ASSERT_GE(fd, 0);
  std::string burst;
  for (int i = 0; i < 11; ++i) burst += get_request("/", /*keep_alive=*/true);
  burst += get_request("/");  // Connection: close terminates the batch
  send_all(fd, burst);
  const std::string r = recv_to_eof(fd);
  ::close(fd);
  // The cap pauses reads instead of dropping requests: all 12 answer, in
  // order, across pause/resume cycles.
  std::size_t count = 0;
  for (std::size_t pos = r.find("HTTP/1.1 200"); pos != std::string::npos;
       pos = r.find("HTTP/1.1 200", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 12u);
}

TEST(ServeOverload, SseLaggardIsClosedAtGlobalWatermark) {
  ServeConfig cfg;
  cfg.port = 0;
  cfg.sse_total_buffered_bytes = 256 * 1024;
  // The per-connection drop cap must sit above the flood volume, or the
  // coalesced frame batch is dropped before it ever lands in the backlog
  // and the global watermark (the behavior under test) never engages.
  cfg.max_buffered_bytes = std::size_t{64} * 1024 * 1024;
  // Keepalives off the critical path: an idle comment frame every second
  // would feed the drain loop below forever.
  cfg.sse_keepalive_period = 60 * kSecond;
  Server server{cfg};
  Services svc;
  Endpoints ep{server, svc};
  ASSERT_TRUE(server.start());

  // Subscriber with a tiny receive buffer that stops reading: the kernel
  // path saturates, so the server-side backlog must grow.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  send_all(fd, get_request("/api/v1/stream", /*keep_alive=*/true));
  const std::string head = recv_until(fd, "\r\n\r\n");
  ASSERT_NE(head.find("text/event-stream"), std::string::npos);

  // Flood without reading. The kernel send buffer can autotune into the
  // megabytes on loopback, so the flood must comfortably exceed it before
  // the server-visible backlog grows past the watermark.
  const std::string payload(8192, 'x');
  for (int i = 0; i < 1500; ++i) server.broadcast_sse("tick", payload);

  // Stay a laggard until the server acts. The watermark is checked after
  // each fan-out batch; a subscriber that reads while the server is still
  // fanning the flood out keeps the backlog under the watermark at every
  // check and is rightly never closed. Reading nothing until the close
  // leaves at least the flood minus the kernel's socket buffers (4 MiB
  // send cap on Linux loopback) queued server-side at the last fan-out.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter_value(server.registry(),
                       "umon_serve_sse_laggards_closed_total") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The laggard must be disconnected, not buffered unboundedly: drain
  // whatever the kernel already accepted, then hit EOF. The server closed
  // with megabytes still unsent, and the kernel may reset such an orphaned
  // socket (TCP memory pressure, orphan limits) instead of sending FIN: a
  // reset is a disconnect too. The deadline (plus the 5 s per-recv
  // timeout) bounds the test if the close never comes.
  bool disconnected = false;
  int recv_errno = 0;
  char buf[16 * 1024];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      disconnected = true;
      break;
    }
    if (n < 0) {
      recv_errno = errno;
      disconnected = recv_errno == ECONNRESET;
      break;  // reset, or recv timeout: no close and no data
    }
  }
  ::close(fd);
  EXPECT_TRUE(disconnected) << "laggard was never disconnected (recv errno "
                            << recv_errno << ")";
  EXPECT_GT(counter_value(server.registry(),
                          "umon_serve_sse_laggards_closed_total"),
            0u);
  server.stop();
}

// --- determinism ------------------------------------------------------------

// Two freshly started servers answering the same request script must emit
// byte-identical responses (includes /metrics: the self-instruments see the
// same request sequence, and no wall-clock field exists in any response).
TEST(ServeDeterminism, SameScriptSameBytes) {
  telemetry::set_detail_enabled(false);  // latency histograms are wall-clock
  const std::vector<std::string> script = {
      "/",
      "/metrics",
      "/health",             // 404 until published
      "/api/v1/query?op=sum",  // 503, no store
      "/api/v1/status",
      "/metrics",
  };
  auto run = [&script]() {
    Server server{ServeConfig{}};
    Services svc;
    Endpoints endpoints{server, svc};
    server.set_snapshot("status", "{\"phase\":\"det\"}");
    EXPECT_TRUE(server.start());
    std::string all;
    for (const auto& path : script) {
      all += "### GET " + path + "\n";
      all += fetch(server.port(), get_request(path));
    }
    server.stop();
    return all;
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("umon_serve_requests_total"), std::string::npos);
}

// --- concurrency stress (TSan CI job: -R "_concurrency$") -------------------

TEST(ServeConcurrency, PublishScrapeAndStreamRace) {
  Server server{ServeConfig{}};
  Services svc;
  Endpoints endpoints{server, svc};
  ASSERT_TRUE(server.start());
  server.set_snapshot("status", "{\"phase\":\"warm\"}");

  // Relaxed on purpose (SA004 relaxed allowlist): the joins below publish; the
  // flag only nudges loops to exit and the counter is read after joining.
  std::atomic<bool> stop{false};
  std::atomic<bool> streamed{false};
  std::atomic<int> bad_responses{0};

  // Publisher: hammers the cross-thread surface the driver uses per tick.
  std::thread publisher([&] {
    std::string payload = "{\"type\":\"tick\",\"n\":";
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      server.set_snapshot("status", payload + std::to_string(i) + "}");
      server.set_snapshot("health_jsonl", "{\"tick\":" +
                                              std::to_string(i) + "}\n");
      server.broadcast_sse("tick", payload + std::to_string(i) + "}");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // One SSE subscriber soaking the fan-out path.
  std::thread subscriber([&] {
    const int fd = dial(server.port());
    if (fd < 0) {
      bad_responses.fetch_add(1, std::memory_order_relaxed);
      streamed.store(true, std::memory_order_relaxed);
      return;
    }
    send_all(fd, get_request("/api/v1/stream", /*keep_alive=*/true));
    std::string got = recv_until(fd, "event: tick");
    if (got.find("event: tick") == std::string::npos) {
      bad_responses.fetch_add(1, std::memory_order_relaxed);
    }
    streamed.store(true, std::memory_order_relaxed);
    while (!stop.load(std::memory_order_relaxed)) {
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
  });

  // GET workers mixing endpoints over fresh connections.
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      const char* paths[] = {"/", "/metrics", "/health", "/api/v1/status",
                             "/nope"};
      for (int i = 0; i < 40; ++i) {
        const std::string r = fetch(
            server.port(), get_request(paths[(i + w) % 5]));
        if (r.find("HTTP/1.1 ") != 0) {
          bad_responses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  // Keep publishing until the subscriber has its first tick: a subscriber
  // that registers after the last broadcast would otherwise wait on
  // keepalives alone.
  while (!streamed.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  subscriber.join();
  server.stop();
  EXPECT_EQ(bad_responses.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace umon::serve
