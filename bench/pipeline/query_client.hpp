// The benchmark's read-side client: one keep-alive HTTP/1.1 connection to
// the pipeline's serve plane, used either directly by the replay thread or
// by a thread that runs queued /api/v1/query requests in order. A request's
// latency runs from when it was due, so time spent queued behind a slow
// predecessor counts.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace umon::pbench {

struct QueryJob {
  std::string target;           ///< path and query string
  std::uint64_t due_ns = 0;     ///< 0 = due when the client picks it up
  WindowId from = 0;            ///< requested window range [from, to)
  WindowId to = 0;
  std::uint32_t resolution = 1;
  bool aggregate = false;       ///< all flows rather than one drill-down
  /// Exact bucket count when the caller knows the store's extent; without
  /// it the reply must be consistent with the range it reports.
  std::optional<std::size_t> expected_buckets;
};

struct QueryOutcome {
  double latency_ms = 0;
  int status = 0;  ///< HTTP status; 0 = transport error or timeout
  bool buckets_ok = false;
  bool aggregate = false;
};

/// Checks a /api/v1/query JSON reply: one bucket per `resolution` windows
/// of the range the reply reports, and that range inside the requested one.
[[nodiscard]] bool check_buckets(const QueryJob& job, const std::string& body);

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// GET `target`; returns the status (0 on a transport error or a reply
  /// slower than the socket timeout) and fills `body`.
  int get(const std::string& target, std::string& body);

 private:
  bool connect_once();
  void close_fd();

  std::uint16_t port_;
  int fd_ = -1;
};

/// Run one job on `client`, timing it from its due time (or from now when
/// it has none) until the reply is read.
[[nodiscard]] QueryOutcome execute(HttpClient& client, const QueryJob& job);

/// Runs queued jobs in submit order on a thread of its own, so the replay
/// thread never waits for a reply.
class QueryStream {
 public:
  explicit QueryStream(std::uint16_t port);
  ~QueryStream();
  QueryStream(const QueryStream&) = delete;
  QueryStream& operator=(const QueryStream&) = delete;

  void submit(QueryJob job);
  /// Wait until every submitted job ran, stop the thread, return outcomes
  /// in submit order.
  std::vector<QueryOutcome> finish();

 private:
  void run();

  HttpClient client_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueryJob> jobs_;
  bool closing_ = false;
  std::vector<QueryOutcome> done_;
  std::thread thread_;  ///< last: starts after everything it uses
};

}  // namespace umon::pbench
