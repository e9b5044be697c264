// bench_health_overhead: cost of continuous health monitoring.
//
//   bench_health_overhead [--ms N] [--max-overhead-pct X]
//
// Runs the same chunked simulation + collection pipeline twice — once bare,
// once with umon::health fully attached (per-packet watermark notes and
// fidelity-probe observation, per-tick registry sampling, watermark
// publication, probe evaluation, alarm evaluation) — and reports the
// relative wall-clock overhead of the health instrumentation. Both runs use
// identical chunking, epoch flushing, and collector draining, so the delta
// isolates exactly what --health-out adds to umon_sim. Best-of-3 per mode:
// scheduling noise only ever inflates a run.
//
// With --max-overhead-pct the process exits 1 when the overhead exceeds the
// budget — CI gates at 2%.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "health/health.hpp"
#include "netsim/network.hpp"
#include "netsim/upload_channel.hpp"
#include "sketch/wavesketch_full.hpp"
#include "telemetry/metrics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace umon;

/// One chunked pipeline run; returns wall nanoseconds of the driver loop.
double run_once(Nanos duration, bool with_health) {
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

  std::unique_ptr<health::HealthMonitor> mon;
  if (with_health) {
    mon = std::make_unique<health::HealthMonitor>();
    mon->add_registry(&telemetry::MetricRegistry::global());
    mon->add_registry(&col.telemetry_registry());
    mon->set_analyzer(&an);
    col.set_decode_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kCollectorDecode, t);
    });
    col.set_curve_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kAnalyzerCurve, t);
    });
  }

  net->set_host_tx_hook([&, m = mon.get()](int host, const PacketRecord& r) {
    sketches[static_cast<std::size_t>(host)]->update(
        r.flow, r.timestamp, static_cast<Count>(r.size));
    if (m != nullptr) {
      m->watermarks().note(health::Stage::kPacketEvent, r.timestamp);
      m->probe().observe(r.flow, r.timestamp, r.size);
    }
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
  if (mon) mon->prime(0);

  const std::uint64_t t0 = telemetry::monotonic_ns();
  for (Nanos t = tick; ; t += tick) {
    if (t > horizon) t = horizon;
    net->run_until(t);
    if (mon) net->settle_telemetry();
    channel.advance_to(t);
    for (const PendingSeal& s : awaiting) {
      col.seal_epoch(s.host, s.epoch, s.end_seq);
    }
    awaiting.clear();
    for (int h = 0; h < net->host_count(); ++h) {
      auto up = uplinks[static_cast<std::size_t>(h)].flush_epoch(
          *sketches[static_cast<std::size_t>(h)]);
      if (mon) mon->watermarks().note(health::Stage::kSketchSeal, t);
      for (auto& p : up.payloads) {
        // umon-sca: allow(SA009) health bench isolates the legacy path
        (void)channel.send(h, up.epoch, std::move(p.bytes), t);
      }
      awaiting.push_back({h, up.epoch, up.end_seq});
    }
    col.drain();
    if (mon) mon->tick(t);
    if (t >= horizon) break;
  }
  net->finish();
  channel.flush();
  for (const PendingSeal& s : awaiting) {
    col.seal_epoch(s.host, s.epoch, s.end_seq);
  }
  col.stop();
  if (mon) mon->tick(horizon + tick);
  return static_cast<double>(telemetry::monotonic_ns() - t0);
}

}  // namespace

int main(int argc, char** argv) {
  Nanos duration = 10 * kMilli;
  double max_overhead_pct = 0;  // 0 = report only
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ms") == 0 && i + 1 < argc) {
      duration = static_cast<Nanos>(std::atof(argv[++i]) * 1e6);
    } else if (std::strcmp(argv[i], "--max-overhead-pct") == 0 &&
               i + 1 < argc) {
      max_overhead_pct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_health_overhead [--ms N] "
                   "[--max-overhead-pct X]\n");
      return 2;
    }
  }

  // Warm both paths once (page cache, allocator, thread pools).
  (void)run_once(2 * kMilli, false);
  (void)run_once(2 * kMilli, true);

  double bare = 1e18, health = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const double b = run_once(duration, false);
    const double h = run_once(duration, true);
    if (b < bare) bare = b;
    if (h < health) health = h;
  }
  const double overhead_pct = (health - bare) / bare * 100.0;

  std::printf("health monitoring overhead (%.0f ms sim, best of 3)\n",
              static_cast<double>(duration) / 1e6);
  std::printf("  bare pipeline:    %8.2f ms\n", bare / 1e6);
  std::printf("  with health:      %8.2f ms\n", health / 1e6);
  std::printf("  overhead:         %8.2f %%\n", overhead_pct);
  if (max_overhead_pct > 0) {
    const bool over = overhead_pct > max_overhead_pct;
    std::printf("budget: %.2f %% -> %s\n", max_overhead_pct,
                over ? "FAIL" : "OK");
    return over ? 1 : 0;
  }
  return 0;
}
