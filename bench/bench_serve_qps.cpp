// bench_serve_qps: serving-tier throughput and ingest-overhead bench.
//
//   bench_serve_qps [--flows N] [--epochs N] [--trials N] [--dir PATH]
//                   [--out PATH] [--min-cached-rps X] [--max-overhead-pct X]
//                   [--max-probe-p99-ms X]
//
// Three phases over the same seeded synthetic curve stream:
//
//   ingest    write-through append + per-epoch seal into a durable store
//             (the umon_sim --store-dir hot path), no server → baseline
//             payload MB/s.
//   serving   identical ingest with the live plane attached: an epoll
//             Server + Endpoints over the store being written, per-epoch
//             snapshot publishes + SSE broadcasts (what umon_sim's
//             serve_publish does), and a dashboard-cadence scraper thread
//             polling /metrics + /health over the wire → serving MB/s.
//             Each of --trials (default 11) trials runs both legs back to
//             back, alternating which goes first; the ingest overhead of
//             serving is the median over trials of serving / baseline
//             (bench/support/paired.hpp), printed with its quartiles.
//   qps       reopen the store read-only behind a fresh server and hammer
//             /api/v1/query over one keep-alive connection: ping-pong
//             requests give the serial round-trip rate, pipelined batches
//             give the cached-throughput rate (every request after the
//             first hits the serialized-response cache — generation never
//             moves on a read-only store).
//   overload  4 connections flood pipelined, cache-busting queries at a
//             server whose admission cap is deliberately small, while a
//             probe connection ping-pongs /health and /metrics. The plane
//             must shed the uncached query work (503 + Retry-After, every
//             one verified) yet keep the probe's p99 round trip flat —
//             the "cheap endpoints stay on under storm" contract.
//
// The pipelined rate is the capacity claim: it is the per-request cost of
// the serving stack (parse, route, cache hit, response assembly, socket
// IO) with syscall round-trips amortized, i.e. what one core of the plane
// sustains while ingest owns the others. The overhead phase bounds what
// serving steals from the ingest thread itself. On a single-core runner
// the scraper's CPU is attributed to the ingest wall clock too, so the
// overhead number there is an upper bound.
//
// Results are persisted as BENCH_serve.json (bench/support/snapshot.hpp)
// so the perf trajectory is checked in per PR. With --min-cached-rps or
// --max-overhead-pct the process exits 1 when the measurement misses the
// budget — the CI gates.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "bench/support/paired.hpp"
#include "bench/support/snapshot.hpp"
#include "serve/endpoints.hpp"
#include "serve/server.hpp"
#include "store/store.hpp"

namespace {

using namespace umon;

double now_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 11;
  }
  double uniform() { return static_cast<double>(next() % 100000) / 100000.0; }
};

FlowKey make_flow(std::uint32_t i) {
  return FlowKey{10u * 65536u + i, 20u * 65536u + (i % 13),
                 static_cast<std::uint16_t>(1000 + i), 80, 6};
}

/// Deterministic synthetic epoch stream (the bench_store_io shape) with a
/// per-seal hook for the serving variant's publish cadence.
template <typename OnSeal>
void feed(analyzer::FlowCurveStore& fcs, store::Store& st, int epochs,
          int flows, OnSeal&& on_seal) {
  Lcg rng(1234);
  for (int e = 0; e < epochs; ++e) {
    for (int f = 0; f < flows; ++f) {
      std::vector<std::pair<WindowId, double>> windows;
      const WindowId base = static_cast<WindowId>(e) * 64;
      for (WindowId w = 0; w < 64; ++w) {
        const double r = rng.uniform();
        if (r < 0.2) {
          const double burst = r < 0.02 ? 40000.0 : 1500.0;
          windows.emplace_back(base + w, std::floor(burst * rng.uniform()));
        }
      }
      if (!windows.empty()) fcs.add_sparse(make_flow(f), windows);
    }
    if (!st.seal_epoch()) {
      std::fprintf(stderr, "seal_epoch failed at epoch %d\n", e);
      std::exit(1);
    }
    on_seal(e);
  }
}

// --- minimal blocking client (the scraper + qps driver) ---------------------

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one complete Content-Length-framed response off a keep-alive
/// connection. Returns the total response size in bytes, or 0 on failure.
std::size_t read_response(int fd, std::string& out) {
  out.clear();
  std::size_t header_end = std::string::npos;
  char buf[8192];
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return 0;
    out.append(buf, static_cast<std::size_t>(n));
    header_end = out.find("\r\n\r\n");
  }
  const char* cl = std::strstr(out.c_str(), "Content-Length: ");
  if (cl == nullptr) return 0;
  const std::size_t want =
      header_end + 4 +
      static_cast<std::size_t>(std::strtoull(cl + 16, nullptr, 10));
  while (out.size() < want) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return 0;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out.size() == want ? want : 0;
}

std::string get_request(const char* path) {
  return std::string("GET ") + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

/// Pull one Content-Length-framed response out of `stream`, recv-ing more
/// as needed. Unlike read_response this keeps pipelined leftovers for the
/// next call. Returns false on socket failure or unframeable bytes.
bool next_response(int fd, std::string& stream, std::string& resp) {
  char buf[16384];
  for (;;) {
    const std::size_t header_end = stream.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const char* cl = std::strstr(stream.c_str(), "Content-Length: ");
      if (cl == nullptr || cl > stream.c_str() + header_end) return false;
      const std::size_t want =
          header_end + 4 +
          static_cast<std::size_t>(std::strtoull(cl + 16, nullptr, 10));
      if (stream.size() >= want) {
        resp.assign(stream, 0, want);
        stream.erase(0, want);
        return true;
      }
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    stream.append(buf, static_cast<std::size_t>(n));
  }
}

bool fresh_dir(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  return std::system(cmd.c_str()) == 0;
}

/// One timed bare ingest run. Returns elapsed microseconds; `bytes_out`
/// gets the payload appended.
double ingest_once(const store::StoreConfig& cfg, int epochs, int flows,
                   std::uint64_t& bytes_out) {
  analyzer::FlowCurveStore fcs;
  auto st = store::Store::open(cfg);
  if (!st) {
    std::fprintf(stderr, "cannot open %s\n", cfg.dir.c_str());
    std::exit(1);
  }
  fcs.set_sink(st.get());
  const double t0 = now_us();
  feed(fcs, *st, epochs, flows, [](int) {});
  const double elapsed = now_us() - t0;
  fcs.set_sink(nullptr);
  bytes_out = st->stats().append_bytes;
  return elapsed;
}

/// One timed serving-attached ingest run: the live plane over the store
/// being written, plus a dashboard-cadence scraper (every 50 ms — far
/// hotter than a real Prometheus interval) hitting /metrics and /health
/// over the wire. Returns elapsed microseconds; `scrapes` accumulates the
/// scrape rounds completed.
double serving_ingest_once(const store::StoreConfig& cfg, int epochs,
                           int flows, std::uint64_t& scrapes) {
  auto st = store::Store::open(cfg);
  if (!st) {
    std::fprintf(stderr, "cannot open %s\n", cfg.dir.c_str());
    std::exit(1);
  }
  serve::Server server{serve::ServeConfig{}};
  serve::Services svc;
  svc.store = st.get();
  svc.store_dir = cfg.dir;
  serve::Endpoints endpoints{server, svc};
  if (!server.start()) {
    std::fprintf(stderr, "cannot start server\n");
    std::exit(1);
  }

  // Relaxed on purpose (SA004 relaxed allowlist): the join publishes; the flag
  // only nudges the scraper loop to exit.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrape_count{0};
  std::thread scraper([&] {
    const int fd = dial(server.port());
    if (fd < 0) return;
    std::string resp;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!send_all(fd, get_request("/metrics")) ||
          read_response(fd, resp) == 0) {
        break;
      }
      if (!send_all(fd, get_request("/health")) ||
          read_response(fd, resp) == 0) {
        break;
      }
      scrape_count.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::close(fd);
  });

  analyzer::FlowCurveStore fcs;
  fcs.set_sink(st.get());
  const double t0 = now_us();
  feed(fcs, *st, epochs, flows, [&](int e) {
    const std::string tick = "{\"type\":\"tick\",\"epoch\":" +
                             std::to_string(e) + ",\"healthy\":true}";
    server.set_snapshot("health_jsonl", tick + "\n");
    server.set_snapshot("status", tick);
    server.broadcast_sse("tick", tick);
  });
  const double elapsed = now_us() - t0;
  fcs.set_sink(nullptr);
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  server.stop();
  scrapes += scrape_count.load(std::memory_order_relaxed);
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  int flows = 96;
  int epochs = 256;
  int trials = 11;
  std::string dir = "bench_serve_qps_dir";
  std::string out = "BENCH_serve.json";
  double min_cached_rps = 0;
  double max_overhead_pct = 0;
  double max_probe_p99_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { std::fprintf(stderr, "missing value\n"); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--flows") flows = std::atoi(next());
    else if (arg == "--epochs") epochs = std::atoi(next());
    else if (arg == "--trials") trials = std::atoi(next());
    else if (arg == "--dir") dir = next();
    else if (arg == "--out") out = next();
    else if (arg == "--min-cached-rps") min_cached_rps = std::atof(next());
    else if (arg == "--max-overhead-pct") max_overhead_pct = std::atof(next());
    else if (arg == "--max-probe-p99-ms") max_probe_p99_ms = std::atof(next());
    else { std::fprintf(stderr, "bad argument: %s\n", arg.c_str()); return 2; }
  }
  if (trials < 1) trials = 1;

  store::StoreConfig cfg;
  cfg.dir = dir;
  cfg.segment_epochs = 4;
  cfg.tier1_age_epochs = 0;  // ingest stays pure tier-0, like bench_store_io

  // --- phase 1 + 2: ingest baseline vs serving-attached, paired ------------
  std::vector<double> base_us, serve_us;
  std::uint64_t ingest_bytes = 0;
  std::uint64_t scrapes = 0;
  for (int t = 0; t < trials; ++t) {
    for (int leg = 0; leg < 2; ++leg) {
      if (!fresh_dir(dir)) return 1;
      if ((t + leg) % 2 == 0) {
        base_us.push_back(ingest_once(cfg, epochs, flows, ingest_bytes));
      } else {
        serve_us.push_back(serving_ingest_once(cfg, epochs, flows, scrapes));
      }
    }
  }
  const double ingest_mb = static_cast<double>(ingest_bytes) / 1e6;
  const double base_mbs =
      ingest_mb / (bench::quartiles(base_us).median / 1e6);
  const double serve_mbs =
      ingest_mb / (bench::quartiles(serve_us).median / 1e6);
  const bench::Quartiles overhead =
      bench::quartiles(bench::paired_overhead_pct(serve_us, base_us));
  const double overhead_pct = overhead.median;

  // --- phase 3: cached query throughput -------------------------------------
  // Read-only reopen: the store generation never moves, so every request
  // after the first is a serialized-response cache hit.
  double serial_rps = 0, pipelined_rps = 0;
  std::uint64_t qps_requests = 0;
  std::size_t response_bytes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  {
    auto st = store::Store::open(cfg, nullptr, /*writable=*/false);
    if (!st) { std::fprintf(stderr, "reopen failed\n"); return 1; }
    serve::Server server{serve::ServeConfig{}};
    serve::Services svc;
    svc.store = st.get();
    svc.store_dir = dir;
    serve::Endpoints endpoints{server, svc};
    if (!server.start()) return 1;

    // A dashboard-shaped query: bounded range, coarse resolution → small
    // cached body. The rate is then the per-request stack cost, not
    // loopback bandwidth on a multi-kilobyte series.
    const std::string req = get_request(
        "/api/v1/query?op=sum&from_us=0&to_us=4096&resolution=64");
    const int fd = dial(server.port());
    if (fd < 0) return 1;

    // Warm: the one engine run + serialization miss.
    std::string resp;
    if (!send_all(fd, req) || read_response(fd, resp) == 0 ||
        resp.rfind("HTTP/1.1 200", 0) != 0) {
      std::fprintf(stderr, "warm query failed: %.80s\n", resp.c_str());
      return 1;
    }
    response_bytes = resp.size();

    // Serial: ping-pong round trips, one request in flight.
    const int serial_n = 2000;
    double t0 = now_us();
    for (int i = 0; i < serial_n; ++i) {
      if (!send_all(fd, req) || read_response(fd, resp) != response_bytes) {
        std::fprintf(stderr, "serial query %d failed\n", i);
        return 1;
      }
    }
    serial_rps = serial_n / ((now_us() - t0) / 1e6);

    // Pipelined: batches of 64 in flight amortize the syscall round trip;
    // every response is byte-identical (same cache entry), so framing is
    // just a byte count.
    const int batch = 64, batches = 625;
    std::string burst;
    for (int i = 0; i < batch; ++i) burst += req;
    std::string got;
    char buf[65536];
    t0 = now_us();
    for (int b = 0; b < batches; ++b) {
      if (!send_all(fd, burst)) { std::fprintf(stderr, "burst send failed\n"); return 1; }
      std::size_t need = static_cast<std::size_t>(batch) * response_bytes;
      while (need > 0) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) { std::fprintf(stderr, "burst read failed\n"); return 1; }
        need -= static_cast<std::size_t>(n);
      }
    }
    qps_requests = static_cast<std::uint64_t>(batch) * batches;
    pipelined_rps =
        static_cast<double>(qps_requests) / ((now_us() - t0) / 1e6);
    ::close(fd);
    server.stop();
    const auto cs = endpoints.cache_stats();
    cache_hits = cs.hits;
    cache_misses = cs.misses;
  }

  // --- phase 4: overload ----------------------------------------------------
  // A small admission cap makes the shed path the common case under the
  // flood; the probe's cheap endpoints must stay fast regardless.
  double probe_p50_us = 0, probe_p99_us = 0;
  std::uint64_t shed_503 = 0, storm_200 = 0;
  {
    auto st = store::Store::open(cfg, nullptr, /*writable=*/false);
    if (!st) { std::fprintf(stderr, "overload reopen failed\n"); return 1; }
    serve::ServeConfig scfg_over;
    // With 4 pipelining conns, a cap of 2 admits at most two uncached
    // walks per connection per event-loop round — the probe's turn comes
    // back after a handful of milliseconds, not after the whole storm.
    scfg_over.max_inflight_requests = 2;
    serve::Server server{scfg_over};
    serve::Services svc;
    svc.store = st.get();
    svc.store_dir = dir;
    serve::Endpoints endpoints{server, svc};
    server.set_snapshot("health_jsonl", "{\"healthy\":true}\n");
    if (!server.start()) return 1;

    const int flood_conns = 4, flood_batches = 40, batch = 16;
    std::atomic<bool> storm_done{false};
    std::atomic<std::uint64_t> n200{0}, n503{0}, bad_shed{0};
    std::vector<std::thread> flooders;
    flooders.reserve(flood_conns);
    for (int c = 0; c < flood_conns; ++c) {
      flooders.emplace_back([&, c] {
        const int fd = dial(server.port());
        if (fd < 0) return;
        std::string stream, resp;
        for (int b = 0; b < flood_batches; ++b) {
          // Cache-busting burst: range and resolution vary per request, so
          // almost every admission decision sees an uncached walk.
          std::string burst;
          for (int i = 0; i < batch; ++i) {
            const int n = b * batch + i;
            const long to = 64 + ((c * 997 + n * 131) % 1024);
            burst += get_request(
                ("/api/v1/query?op=sum&from_us=0&to_us=" + std::to_string(to) +
                 "&resolution=" + std::to_string(8 << (n % 4)))
                    .c_str());
          }
          if (!send_all(fd, burst)) break;
          bool dead = false;
          for (int i = 0; i < batch; ++i) {
            if (!next_response(fd, stream, resp)) { dead = true; break; }
            if (resp.rfind("HTTP/1.1 200", 0) == 0) {
              n200.fetch_add(1, std::memory_order_relaxed);
            } else if (resp.rfind("HTTP/1.1 503", 0) == 0) {
              n503.fetch_add(1, std::memory_order_relaxed);
              if (resp.find("Retry-After: 1\r\n") == std::string::npos) {
                bad_shed.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          if (dead) break;
        }
        ::close(fd);
      });
    }

    // The flooders' collective exit is what ends the probe loop; a helper
    // owns the joins so the main thread is free to run the probe.
    std::thread joiner([&] {
      for (auto& f : flooders) f.join();
      storm_done.store(true, std::memory_order_relaxed);
    });

    // Probe leg: serial /health + /metrics round trips for as long as the
    // storm lasts. Every sample is one cheap-endpoint latency under load.
    std::vector<double> samples;
    {
      const int fd = dial(server.port());
      if (fd < 0) { std::fprintf(stderr, "probe dial failed\n"); return 1; }
      std::string resp;
      const std::string health = get_request("/health");
      const std::string metrics = get_request("/metrics");
      bool use_health = true;
      while (!storm_done.load(std::memory_order_relaxed)) {
        const std::string& req = use_health ? health : metrics;
        use_health = !use_health;
        const double t0 = now_us();
        if (!send_all(fd, req) || read_response(fd, resp) == 0 ||
            resp.rfind("HTTP/1.1 200", 0) != 0) {
          std::fprintf(stderr, "probe request failed under load\n");
          return 1;
        }
        samples.push_back(now_us() - t0);
      }
      ::close(fd);
    }
    joiner.join();
    server.stop();
    shed_503 = n503.load(std::memory_order_relaxed);
    storm_200 = n200.load(std::memory_order_relaxed);
    if (bad_shed.load(std::memory_order_relaxed) > 0) {
      std::fprintf(stderr, "%llu shed response(s) missed Retry-After\n",
                   static_cast<unsigned long long>(
                       bad_shed.load(std::memory_order_relaxed)));
      return 1;
    }
    if (shed_503 == 0) {
      std::fprintf(stderr, "overload storm was never shed\n");
      return 1;
    }
    std::sort(samples.begin(), samples.end());
    if (!samples.empty()) {
      probe_p50_us = samples[samples.size() / 2];
      probe_p99_us = samples[(samples.size() * 99) / 100];
    }
  }
  std::printf("  ingest:      %.2f MB bare %.1f MB/s, serving %.1f MB/s "
              "(medians of %d trials) -> overhead %.2f%% [%.2f, %.2f] "
              "(%llu scrapes)\n",
              ingest_mb, base_mbs, serve_mbs, trials, overhead_pct,
              overhead.q1, overhead.q3,
              static_cast<unsigned long long>(scrapes));
  std::printf("  cached query: serial %.0f rps, pipelined %.0f rps "
              "(%llu requests, %zu B each, cache %llu hit / %llu miss)\n",
              serial_rps, pipelined_rps,
              static_cast<unsigned long long>(qps_requests), response_bytes,
              static_cast<unsigned long long>(cache_hits),
              static_cast<unsigned long long>(cache_misses));
  std::printf("  overload:    %llu shed (503 + Retry-After), %llu served; "
              "probe p50 %.0f us, p99 %.0f us\n",
              static_cast<unsigned long long>(shed_503),
              static_cast<unsigned long long>(storm_200), probe_p50_us,
              probe_p99_us);

  bench::Snapshot snap("serve_qps");
  snap.set("flows", static_cast<std::uint64_t>(flows));
  snap.set("epochs", static_cast<std::uint64_t>(epochs));
  snap.set("ingest_mb", ingest_mb);
  snap.set("ingest_baseline_mbs", base_mbs);
  snap.set("ingest_serving_mbs", serve_mbs);
  snap.set("serve_overhead_pct", overhead_pct);
  snap.set("scrapes", scrapes);
  snap.set("serial_query_rps", serial_rps);
  snap.set("cached_query_rps", pipelined_rps);
  snap.set("query_response_bytes",
           static_cast<std::uint64_t>(response_bytes));
  snap.set("query_cache_hits", cache_hits);
  snap.set("query_cache_misses", cache_misses);
  snap.set("overload_shed", shed_503);
  snap.set("overload_served", storm_200);
  snap.set("overload_probe_p50_us", probe_p50_us);
  snap.set("overload_probe_p99_us", probe_p99_us);
  if (!snap.write(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("  snapshot:    %s\n", out.c_str());

  if (min_cached_rps > 0 && pipelined_rps < min_cached_rps) {
    std::fprintf(stderr, "GATE: cached %.0f rps < %.0f rps\n", pipelined_rps,
                 min_cached_rps);
    return 1;
  }
  if (max_overhead_pct > 0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr, "GATE: serving overhead %.2f%% > %.2f%%\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  if (max_probe_p99_ms > 0 && probe_p99_us > max_probe_p99_ms * 1e3) {
    std::fprintf(stderr, "GATE: probe p99 %.0f us > %.1f ms under storm\n",
                 probe_p99_us, max_probe_p99_ms);
    return 1;
  }
  return 0;
}
