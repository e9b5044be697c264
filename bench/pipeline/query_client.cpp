#include "query_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "telemetry/metrics.hpp"

namespace umon::pbench {
namespace {

/// A reply slower than this counts as a failed query.
constexpr int kTimeoutSeconds = 5;

bool json_int(const std::string& body, const char* key, long long& out) {
  const std::string k = std::string("\"") + key + "\":";
  const std::size_t at = body.find(k);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoll(body.c_str() + at + k.size(), &end, 10);
  return end != body.c_str() + at + k.size();
}

}  // namespace

bool check_buckets(const QueryJob& job, const std::string& body) {
  long long from = 0, to = 0, res = 0;
  if (!json_int(body, "from_window", from) ||
      !json_int(body, "to_window", to) || !json_int(body, "resolution", res) ||
      res != job.resolution || from < job.from || to > job.to || to <= from) {
    return false;
  }
  std::size_t buckets = 0;
  for (std::size_t at = body.find("{\"t_us\":"); at != std::string::npos;
       at = body.find("{\"t_us\":", at + 1)) {
    ++buckets;
  }
  const auto want = job.expected_buckets.value_or(
      static_cast<std::size_t>((to - from + res - 1) / res));
  return buckets == want;
}

HttpClient::~HttpClient() { close_fd(); }

void HttpClient::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::connect_once() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval tv{kTimeoutSeconds, 0};
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close_fd();
    return false;
  }
  return true;
}

int HttpClient::get(const std::string& target, std::string& body) {
  body.clear();
  if (fd_ < 0 && !connect_once()) return 0;
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: keep-alive\r\n\r\n";
  for (std::size_t off = 0; off < req.size();) {
    const ssize_t n = ::send(fd_, req.data() + off, req.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      close_fd();
      return 0;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string in;
  std::size_t header_end = std::string::npos;
  std::size_t want = 0;
  char buf[65536];
  for (;;) {
    if (header_end == std::string::npos) {
      header_end = in.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::size_t cl = in.find("Content-Length: ");
        if (cl == std::string::npos || cl > header_end) {
          close_fd();
          return 0;
        }
        want = header_end + 4 +
               std::strtoull(in.c_str() + cl + 16, nullptr, 10);
      }
    }
    if (header_end != std::string::npos && in.size() >= want) break;
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) {
      close_fd();
      return 0;
    }
    in.append(buf, static_cast<std::size_t>(n));
  }
  const int status = in.rfind("HTTP/1.1 ", 0) == 0
                         ? std::atoi(in.c_str() + 9)
                         : 0;
  const std::string head = in.substr(0, header_end);
  body = in.substr(header_end + 4, want - header_end - 4);
  if (head.find("Connection: close") != std::string::npos) close_fd();
  return status;
}

QueryOutcome execute(HttpClient& client, const QueryJob& job) {
  const std::uint64_t due =
      job.due_ns != 0 ? job.due_ns : telemetry::monotonic_ns();
  std::string body;
  QueryOutcome out;
  out.aggregate = job.aggregate;
  out.status = client.get(job.target, body);
  out.latency_ms = static_cast<double>(telemetry::monotonic_ns() - due) / 1e6;
  out.buckets_ok = out.status == 200 && check_buckets(job, body);
  return out;
}

QueryStream::QueryStream(std::uint16_t port)
    : client_(port), thread_([this] { run(); }) {}

QueryStream::~QueryStream() { (void)finish(); }

void QueryStream::submit(QueryJob job) {
  {
    std::lock_guard lock(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

std::vector<QueryOutcome> QueryStream::finish() {
  {
    std::lock_guard lock(mu_);
    closing_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  return done_;
}

void QueryStream::run() {
  for (;;) {
    QueryJob job;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return closing_ || !jobs_.empty(); });
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    done_.push_back(execute(client_, job));
  }
}

}  // namespace umon::pbench
