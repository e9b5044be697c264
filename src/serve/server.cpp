#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace umon::serve {
namespace {

constexpr int kMaxEpollEvents = 64;
/// Loop tick: upper-bounds how late idle sweeps and SSE keepalives run.
constexpr int kEpollTickMillis = 50;
/// Compact a connection's out buffer once the flushed prefix passes this.
constexpr std::size_t kCompactThreshold = 64 * 1024;

}  // namespace

Server::Server(ServeConfig cfg) : cfg_(std::move(cfg)) {
  requests_total_ = registry_.counter("umon_serve_requests_total", {},
                                      "HTTP requests parsed");
  bytes_sent_total_ = registry_.counter("umon_serve_bytes_sent_total", {},
                                        "response bytes written to sockets");
  connections_total_ = registry_.counter("umon_serve_connections_total", {},
                                         "connections accepted");
  idle_closed_total_ =
      registry_.counter("umon_serve_idle_closed_total", {},
                        "connections closed by the idle/slowloris timeout");
  overflow_closed_total_ = registry_.counter(
      "umon_serve_overflow_closed_total", {},
      "connections refused over max_connections or closed over buffer caps");
  sse_events_total_ = registry_.counter("umon_serve_sse_events_total", {},
                                        "SSE frames queued to subscribers");
  sse_dropped_total_ =
      registry_.counter("umon_serve_sse_dropped_total", {},
                        "SSE frames dropped on full subscriber buffers");
  sse_laggards_closed_total_ = registry_.counter(
      "umon_serve_sse_laggards_closed_total", {},
      "SSE subscribers disconnected at the global backlog watermark");
  connections_active_ = registry_.gauge("umon_serve_connections_active", {},
                                        "open connections");
  sse_clients_ = registry_.gauge("umon_serve_sse_clients", {},
                                 "connected /api/v1/stream subscribers");
}

Server::~Server() { stop(); }

bool Server::start() {
  if (running_.load(std::memory_order_relaxed)) return true;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    std::perror("umon-serve: socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "umon-serve: bad bind address %s\n",
                 cfg_.bind_addr.c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, cfg_.backlog) < 0) {
    std::perror("umon-serve: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    std::perror("umon-serve: epoll/eventfd");
    stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stop_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    wake();
    thread_.join();
  }
  running_.store(false, std::memory_order_relaxed);
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  inflight_total_ = 0;
  connections_active_->set(0);
  sse_clients_->set(0);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

void Server::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Server::set_snapshot(const std::string& key, std::string value) {
  std::lock_guard lock(publish_mutex_);
  snapshots_[key] = std::move(value);
}

std::string Server::snapshot(const std::string& key) const {
  std::lock_guard lock(publish_mutex_);
  const auto it = snapshots_.find(key);
  return it == snapshots_.end() ? std::string{} : it->second;
}

bool Server::has_snapshot(const std::string& key) const {
  std::lock_guard lock(publish_mutex_);
  return snapshots_.count(key) != 0;
}

void Server::broadcast_sse(const std::string& event, const std::string& data) {
  {
    std::lock_guard lock(publish_mutex_);
    pending_events_.emplace_back(event, data);
  }
  // Nudge the loop after the guard scope: the eventfd write is a syscall
  // and must never run while publish_mutex_ is held (SA002).
  wake();
}

void Server::update_interest(Conn& c) {
  const bool want_write = c.out_off < c.out.size();
  // EPOLLIN must be disarmed while parsing is paused: the loop is
  // level-triggered, so leaving it armed with unread socket bytes would
  // spin the loop at 100% CPU instead of exerting TCP backpressure.
  const bool want_read = !c.read_paused;
  if (want_write == c.want_write && want_read == c.read_armed) return;
  c.want_write = want_write;
  c.read_armed = want_read;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void Server::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.sse) sse_clients_->add(-1);
  inflight_total_ -= it->second.inflight;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  connections_active_->add(-1);
}

void Server::accept_ready(std::uint64_t now_ns) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: try next tick
    if (conns_.size() >= cfg_.max_connections) {
      overflow_closed_total_->inc();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Conn c;
    c.fd = fd;
    c.last_activity_ns = now_ns;
    conns_.emplace(fd, std::move(c));
    connections_total_->inc();
    connections_active_->add(1);
  }
}

void Server::queue_response(Conn& c, int status, const std::string& response) {
  auto it = status_responses_.find(status);
  if (it == status_responses_.end()) {
    it = status_responses_
             .emplace(status,
                      registry_.counter(
                          "umon_serve_responses_total",
                          {{"status", std::to_string(status)}},
                          "responses by status code"))
             .first;
  }
  it->second->inc();
  if (c.out.size() - c.out_off + response.size() > cfg_.max_buffered_bytes) {
    // One oversized response is allowed through, but the connection closes
    // after the flush so a pipelined burst cannot grow the buffer unbounded.
    overflow_closed_total_->inc();
    c.close_after_flush = true;
  }
  c.out += response;
  ++c.inflight;
  ++inflight_total_;
}

void Server::handle_parsed(Conn& c, const HttpRequest& req) {
  requests_total_->inc();
  Routed routed;
  if (dispatch_) {
    // Admission hint: the router sheds expensive uncached work when the
    // global in-flight backlog is at the cap (cheap endpoints stay on).
    LoadHint hint;
    hint.inflight = inflight_total_;
    hint.shed_expensive = inflight_total_ >= cfg_.max_inflight_requests;
    std::string endpoint = "other";
    // Per-endpoint latency is detail-gated: no clock is read when detail
    // is off, which also keeps /metrics byte-deterministic in replay runs.
    const bool timed = telemetry::detail_enabled();
    const std::uint64_t t0_ns = timed ? telemetry::monotonic_ns() : 0;
    routed = dispatch_(req, hint);
    if (!routed.endpoint.empty()) endpoint = routed.endpoint;
    if (timed) {
      auto hit = endpoint_latency_.find(endpoint);
      if (hit == endpoint_latency_.end()) {
        hit = endpoint_latency_
                  .emplace(endpoint,
                           registry_.histogram(
                               "umon_serve_request_latency_us",
                               telemetry::Histogram::latency_us_bounds(),
                               {{"endpoint", endpoint}},
                               "request handling latency by endpoint"))
                  .first;
      }
      const std::uint64_t dt_ns = telemetry::monotonic_ns() - t0_ns;
      hit->second->observe(static_cast<double>(dt_ns) / 1e3);
    }
    auto rit = endpoint_requests_.find(endpoint);
    if (rit == endpoint_requests_.end()) {
      rit = endpoint_requests_
                .emplace(endpoint, registry_.counter(
                                       "umon_serve_endpoint_requests_total",
                                       {{"endpoint", endpoint}},
                                       "requests by endpoint pattern"))
                .first;
    }
    rit->second->inc();
  } else {
    routed.response =
        HttpResponse{503, "application/json",
                     "{\"error\":\"no dispatcher attached\"}\n", false, {}};
  }

  if (routed.response.sse) {
    c.sse = true;
    sse_clients_->add(1);
    queue_response(c, routed.response.status, make_sse_head());
    if (!routed.response.body.empty()) {
      c.out += make_sse_event("hello", routed.response.body);
    }
    return;
  }
  const bool keep = req.keep_alive && !c.close_after_flush;
  std::string bytes =
      make_response(routed.response.status, routed.response.content_type,
                    routed.response.body, keep,
                    routed.response.extra_headers);
  if (req.method == "HEAD") {
    const std::size_t head_end = bytes.find("\r\n\r\n");
    if (head_end != std::string::npos) bytes.resize(head_end + 4);
  }
  queue_response(c, routed.response.status, bytes);
  if (!keep) c.close_after_flush = true;
}

void Server::read_ready(Conn& c, std::uint64_t now_ns) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      c.last_activity_ns = now_ns;
      continue;
    }
    if (n == 0) {  // peer closed
      c.close_after_flush = true;
      if (c.out_off >= c.out.size()) {
        close_conn(c.fd);
        return;
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(c.fd);
    return;
  }

  process_input(c);
  write_ready(c);  // opportunistic flush; may close c
}

void Server::process_input(Conn& c) {
  // Drain complete pipelined requests already buffered, up to the
  // per-connection in-flight cap.
  while (!c.sse && !c.close_after_flush) {
    if (c.inflight >= cfg_.max_pipelined_requests) {
      // Pipelining backpressure: stop parsing — and stop reading the
      // socket — until the queued responses flush. The sender sees TCP
      // push back instead of the server buffering without bound.
      c.read_paused = true;
      break;
    }
    HttpRequest req;
    const ParseStatus st = parse_request(c.in, cfg_.max_request_bytes, req);
    if (st == ParseStatus::kNeedMore) break;
    if (st == ParseStatus::kTooLarge) {
      queue_response(c, 431,
                     make_response(431, "application/json",
                                   "{\"error\":\"request header too "
                                   "large\"}\n",
                                   false));
      c.close_after_flush = true;
      break;
    }
    if (st == ParseStatus::kMalformed) {
      queue_response(c, 400,
                     make_response(400, "application/json",
                                   "{\"error\":\"malformed request\"}\n",
                                   false));
      c.close_after_flush = true;
      break;
    }
    c.in.erase(0, req.consumed);
    handle_parsed(c, req);
  }
}

void Server::write_ready(Conn& c) {
  for (;;) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        bytes_sent_total_->inc(static_cast<std::uint64_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (c.out_off > kCompactThreshold) {
          c.out.erase(0, c.out_off);
          c.out_off = 0;
        }
        update_interest(c);
        return;
      }
      close_conn(c.fd);
      return;
    }
    // Fully drained: every queued response has reached the socket.
    c.out.clear();
    c.out_off = 0;
    inflight_total_ -= c.inflight;
    c.inflight = 0;
    if (c.close_after_flush) {
      close_conn(c.fd);
      return;
    }
    if (c.read_paused) {
      // Backlog cleared: resume the requests deferred by the pipelining
      // cap, then loop to flush whatever they queued.
      c.read_paused = false;
      process_input(c);
      if (c.out_off < c.out.size()) continue;
    }
    update_interest(c);
    return;
  }
}

void Server::fan_out_events(std::uint64_t now_ns) {
  std::vector<std::pair<std::string, std::string>> events;
  {
    std::lock_guard lock(publish_mutex_);
    events.swap(pending_events_);
  }
  if (events.empty()) return;
  std::string frames;
  for (const auto& [name, data] : events) frames += make_sse_event(name, data);
  std::vector<int> flush;
  for (auto& [fd, c] : conns_) {
    if (!c.sse) continue;
    if (c.out.size() - c.out_off + frames.size() > cfg_.max_buffered_bytes) {
      sse_dropped_total_->inc(events.size());
      continue;
    }
    c.out += frames;
    c.last_activity_ns = now_ns;
    sse_events_total_->inc(events.size());
    flush.push_back(fd);
  }
  for (const int fd : flush) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) write_ready(it->second);
  }
  enforce_sse_watermark();
}

void Server::enforce_sse_watermark() {
  // Memory watermark: when the aggregate unflushed SSE backlog passes the
  // cap, disconnect the slowest subscriber (largest backlog) rather than
  // letting stream memory grow without bound.
  for (;;) {
    std::size_t total = 0;
    int worst_fd = -1;
    std::size_t worst = 0;
    for (const auto& [fd, c] : conns_) {
      if (!c.sse) continue;
      const std::size_t backlog = c.out.size() - c.out_off;
      total += backlog;
      if (backlog > worst) {
        worst = backlog;
        worst_fd = fd;
      }
    }
    if (total <= cfg_.sse_total_buffered_bytes || worst_fd < 0) return;
    sse_laggards_closed_total_->inc();
    close_conn(worst_fd);
  }
}

void Server::sweep_idle(std::uint64_t now_ns) {
  std::vector<int> idle;
  for (const auto& [fd, c] : conns_) {
    if (c.sse) continue;  // SSE streams are expected to sit idle on input
    if (now_ns - c.last_activity_ns >
        static_cast<std::uint64_t>(cfg_.idle_timeout)) {
      idle.push_back(fd);
    }
  }
  for (const int fd : idle) {
    idle_closed_total_->inc();
    close_conn(fd);
  }

  if (now_ns - last_keepalive_ns_ >=
      static_cast<std::uint64_t>(cfg_.sse_keepalive_period)) {
    last_keepalive_ns_ = now_ns;
    std::vector<int> flush;
    for (auto& [fd, c] : conns_) {
      if (!c.sse) continue;
      if (c.out.size() - c.out_off + 16 > cfg_.max_buffered_bytes) continue;
      c.out += ": keepalive\n\n";
      flush.push_back(fd);
    }
    for (const int fd : flush) {
      const auto it = conns_.find(fd);
      if (it != conns_.end()) write_ready(it->second);
    }
  }
}

void Server::loop() {
  epoll_event evs[kMaxEpollEvents];
  bool draining = false;
  std::uint64_t drain_deadline_ns = 0;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, evs, kMaxEpollEvents,
                               kEpollTickMillis);
    if (n < 0 && errno != EINTR) break;
    const std::uint64_t now_ns = telemetry::monotonic_ns();

    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const int fd = evs[i].data.fd;
      if (fd == listen_fd_) {
        if (!draining) accept_ready(now_ns);
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t tok = 0;
        [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &tok, sizeof tok);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(fd);
        continue;
      }
      if (evs[i].events & EPOLLOUT) write_ready(it->second);
      // write_ready may have closed (and erased) the connection.
      it = conns_.find(fd);
      if (it != conns_.end() && (evs[i].events & EPOLLIN)) {
        read_ready(it->second, now_ns);
      }
    }

    fan_out_events(now_ns);
    sweep_idle(now_ns);

    if (!draining && stop_.load(std::memory_order_relaxed)) {
      // Graceful shutdown: stop accepting, let pending response bytes
      // flush (bounded by drain_timeout), then fall out of the loop.
      draining = true;
      drain_deadline_ns =
          now_ns + static_cast<std::uint64_t>(cfg_.drain_timeout);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    if (draining) {
      std::vector<int> done;
      for (auto& [fd, c] : conns_) {
        if (c.sse || c.out_off >= c.out.size()) done.push_back(fd);
      }
      for (const int fd : done) close_conn(fd);
      if (conns_.empty() || now_ns > drain_deadline_ns) break;
    }
  }
}

}  // namespace umon::serve
