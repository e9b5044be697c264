// bench_obs_overhead: cost of the always-on cycle profiler (umon::obs).
//
//   bench_obs_overhead [--ms N] [--max-overhead-pct X] [--max-disabled-ns Y]
//
// Two contracts, both CI-gated:
//
//   * disabled path: a UMON_PROF_SCOPE on a hot path must cost one relaxed
//     load and a branch when profiling is off — measured as ns/op over a
//     tight scope-construction loop, gated by --max-disabled-ns (CI: 5 ns,
//     the same budget as the telemetry shims);
//   * enabled path: with sampling on, the full chunked pipeline (sketch
//     updates through collector decode and analyzer ingest — every
//     instrumented stage on its real call path) must stay within
//     --max-overhead-pct of its uninstrumented wall time (CI: 2%).
//
// Best-of-3 per mode: scheduling noise only ever inflates a run. The
// enabled/disabled pipeline runs alternate so frequency drift lands on
// both modes evenly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "netsim/network.hpp"
#include "netsim/upload_channel.hpp"
#include "obs/prof.hpp"
#include "sketch/wavesketch_full.hpp"
#include "telemetry/metrics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace umon;

/// One chunked pipeline run; returns wall nanoseconds of the driver loop.
/// Identical to the bench_health_overhead pipeline minus health, so the
/// enabled-vs-disabled delta isolates exactly what sampling adds.
double run_once(Nanos duration, bool with_prof) {
  netsim::NetworkConfig cfg;
  cfg.queue_sample_interval = 0;
  cfg.seed = 7;
  auto net = netsim::Network::fat_tree(cfg, 4);

  sketch::WaveSketchParams sp;
  sp.depth = 3;
  sp.width = 256;
  sp.levels = 8;
  sp.k = 64;
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches;
  for (int h = 0; h < net->host_count(); ++h) {
    sketches.push_back(std::make_unique<sketch::WaveSketchFull>(sp));
  }

  analyzer::Analyzer an;
  collector::CollectorConfig ccfg;
  ccfg.shards = 2;
  collector::Collector col(ccfg, an);
  netsim::UploadChannelConfig ucfg;
  ucfg.seed = 7;
  netsim::UploadChannel channel(
      ucfg, [&col](netsim::UploadChannel::Delivery&& d) {
        (void)col.submit_report_payload(d.host, d.epoch, std::move(d.payload));
      });

  net->set_host_tx_hook([&](int host, const PacketRecord& r) {
    sketches[static_cast<std::size_t>(host)]->update(
        r.flow, r.timestamp, static_cast<Count>(r.size));
  });

  workload::WorkloadParams wp;
  wp.hosts = net->host_count();
  wp.load = 0.15;
  wp.duration = duration;
  wp.seed = 7;
  workload::Workload w =
      workload::generate(workload::WorkloadKind::kHadoop, wp);
  workload::install(w, *net);

  col.start();
  std::vector<collector::HostUplink> uplinks;
  for (int h = 0; h < net->host_count(); ++h) {
    uplinks.emplace_back(h, 64);
  }
  struct PendingSeal {
    int host;
    std::uint32_t epoch;
    std::uint32_t end_seq;
  };
  std::vector<PendingSeal> awaiting;
  const Nanos tick = 500 * kMicro;
  const Nanos horizon = duration + 5 * kMilli;

  // Calibration (~2 ms spin) happens outside the timed region: it is a
  // one-time startup cost, not a per-run tax.
  if (with_prof) obs::prof_enable();

  const std::uint64_t t0 = telemetry::monotonic_ns();
  for (Nanos t = tick; ; t += tick) {
    if (t > horizon) t = horizon;
    net->run_until(t);
    channel.advance_to(t);
    for (const PendingSeal& s : awaiting) {
      col.seal_epoch(s.host, s.epoch, s.end_seq);
    }
    awaiting.clear();
    for (int h = 0; h < net->host_count(); ++h) {
      auto up = uplinks[static_cast<std::size_t>(h)].flush_epoch(
          *sketches[static_cast<std::size_t>(h)]);
      for (auto& p : up.payloads) {
        // umon-sca: allow(SA009) obs bench isolates the legacy path
        (void)channel.send(h, up.epoch, std::move(p.bytes), t);
      }
      awaiting.push_back({h, up.epoch, up.end_seq});
    }
    col.drain();
    if (t >= horizon) break;
  }
  net->finish();
  channel.flush();
  for (const PendingSeal& s : awaiting) {
    col.seal_epoch(s.host, s.epoch, s.end_seq);
  }
  col.stop();
  const double ns = static_cast<double>(telemetry::monotonic_ns() - t0);
  if (with_prof) obs::prof_disable();
  return ns;
}

/// ns/op of a disabled UMON_PROF_SCOPE, best of 3.
double disabled_scope_ns() {
  constexpr std::uint64_t kIters = 5'000'000;
  obs::prof_disable();
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = telemetry::monotonic_ns();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      UMON_PROF_SCOPE(kCmUpdate);
    }
    const std::uint64_t t1 = telemetry::monotonic_ns();
    const double ns =
        static_cast<double>(t1 - t0) / static_cast<double>(kIters);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Nanos duration = 10 * kMilli;
  double max_overhead_pct = 0;  // 0 = report only
  double max_disabled_ns = 0;   // 0 = report only
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      duration = static_cast<Nanos>(std::atof(argv[++i]) * 1e6);
    } else if (std::strcmp(argv[i], "--max-overhead-pct") == 0 &&
               i + 1 < argc) {
      max_overhead_pct = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-disabled-ns") == 0 &&
               i + 1 < argc) {
      max_disabled_ns = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs_overhead [--ms N] "
                   "[--max-overhead-pct X] [--max-disabled-ns Y]\n");
      return 2;
    }
  }

  const double scope_ns = disabled_scope_ns();

  // Warm both paths once (page cache, allocator, thread pools).
  (void)run_once(2 * kMilli, false);
  (void)run_once(2 * kMilli, true);

  double bare = 1e18, prof = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double b = run_once(duration, false);
    const double p = run_once(duration, true);
    if (b < bare) bare = b;
    if (p < prof) prof = p;
  }
  const double overhead_pct = (prof - bare) / bare * 100.0;

  std::printf("cycle profiler overhead (%.0f ms sim, best of 3)\n",
              static_cast<double>(duration) / 1e6);
  std::printf("  disabled scope:   %8.2f ns/op\n", scope_ns);
  std::printf("  bare pipeline:    %8.2f ms\n", bare / 1e6);
  std::printf("  with profiling:   %8.2f ms\n", prof / 1e6);
  std::printf("  overhead:         %8.2f %%\n", overhead_pct);

  bool fail = false;
  if (max_disabled_ns > 0) {
    const bool over = scope_ns > max_disabled_ns;
    std::printf("disabled budget: %.2f ns/op -> %s\n", max_disabled_ns,
                over ? "FAIL" : "OK");
    fail = fail || over;
  }
  if (max_overhead_pct > 0) {
    const bool over = overhead_pct > max_overhead_pct;
    std::printf("enabled budget: %.2f %% -> %s\n", max_overhead_pct,
                over ? "FAIL" : "OK");
    fail = fail || over;
  }
  return fail ? 1 : 0;
}
