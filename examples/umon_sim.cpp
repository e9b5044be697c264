// umon_sim: command-line driver for full uMon experiments.
//
// Runs a workload on the fat-tree simulator with uFlow (WaveSketch at every
// host) and uEvent (CE match + PSN sampling + mirror at every switch)
// attached, then prints the analyzer's view: accuracy, bandwidth, events.
//
// Usage:
//   umon_sim [--workload websearch|hadoop] [--load 0.15] [--ms 20]
//            [--sample-bits 6] [--k 64] [--width 256] [--depth 3]
//            [--pfc] [--dctcp] [--seed 7]
//            [--collector-shards N] [--report-loss F]
//            [--metrics-out FILE] [--trace-out FILE] [--log-level LEVEL]
//            [--health-out FILE] [--health-interval US] [--health-alarms R]
//            [--fault-plan FILE] [--uplink-reliable] [--uplink-retx-buffer N]
//            [--gap-fill] [--require-recovered]
//            [--store-dir DIR] [--store-tier-budget K]
//            [--disk-fault-plan FILE] [--scrub-interval N]
//            [--scrub-audit FILE]
//            [--prof-out FILE] [--lineage-out FILE]
//            [--serve-port N] [--serve-port-file FILE] [--serve-linger S]
//
// Every run streams the host sketches to the analyzer one measurement
// period at a time, while the workload runs. The simulation advances in
// ticks of --health-interval microseconds (the reporting period; default
// 500, min 100). Each tick flushes one epoch from every host through the
// per-host uplink encode, the simulated upload channel (--report-loss drops
// payloads in transit), the ReliableLink (passthrough unless
// --uplink-reliable), and the sharded collector (--collector-shards,
// default 2). An epoch that loses reports to sequence gaps has its analyzer
// windows flagged lost, so missing data never reads back as idle.
//
// --metrics-out writes a Prometheus text snapshot of the pipeline's own
// telemetry; --trace-out writes Chrome trace_event JSON (open it in
// chrome://tracing or ui.perfetto.dev). Either flag turns on detailed
// self-monitoring (latency histograms, spans) and appends a self-monitoring
// summary to the report. --log-level trace|debug|info|warn|error|off
// controls the structured logger (default warn).
//
// --health-out FILE turns on continuous health monitoring: every tick
// samples every instrument into umon::health's ring store, tracks
// end-to-end freshness watermarks (packet event -> sketch seal -> collector
// decode -> analyzer curve), scores a live reconstruction-fidelity probe,
// and evaluates alarm rules. FILE gets the umon-health-v1 JSONL dump and
// FILE.html a self-contained dashboard. --health-alarms overrides the
// default rule set (';'-separated, see src/health/alarm.hpp). Health output
// is byte-identical across runs with the same seed as long as the
// wall-clock-based detail instrumentation stays off (no --metrics-out /
// --trace-out).
//
// --fault-plan FILE loads a deterministic chaos schedule (see
// src/resilience/fault_plan.hpp for the format): burst loss, duplication,
// reordering, bit corruption, host stalls, and collector shard
// crash/restarts, all driven by the plan's seed so two runs of the same
// plan are byte-identical. --uplink-reliable turns on the retransmitting
// uplink protocol (CRC32C frames, cumulative ACK + NACK over a lossy
// reverse channel, bounded retransmit buffer — size it with
// --uplink-retx-buffer). Epochs that exhaust their retries are declared
// lost and the affected analyzer windows carry confidence flags;
// --gap-fill additionally interpolates across lost windows on read.
// --require-recovered exits non-zero if any epoch went unrecovered (the CI
// chaos gate).
//
// --disk-fault-plan FILE feeds the same plan format's `disk-*` directives
// (write failures, short writes, lying fsyncs, seeded media rot, crash
// points — see src/store/io.hpp) into the segment store's injectable I/O
// shim; it requires --store-dir. --scrub-interval N re-verifies every
// sealed segment's record CRCs against the raw disk bytes every N ticks
// (and once at the end of the run); corrupt records are quarantined, their
// windows flagged lost, and read-repaired from a coarser tier when a
// shadow survives. --scrub-audit FILE streams one deterministic JSONL line
// per scrub pass (findings with segment/offset/span and the
// quarantine/repair outcome). With a store, --require-recovered
// additionally reopens the store read-only after the run and fails unless
// that final scrub is clean — the "no corrupt byte is ever served" gate.
// A `disk-abort` kill point makes the process _exit(86)
// (store::kDiskAbortExitCode) mid-run; rerun without the plan to watch
// recovery.
//
// --prof-out FILE turns on the always-on cycle profiler (umon::obs): every
// instrumented hot path — Count-Min update, Haar butterfly, top-K offer,
// uplink encode, shard decode, epoch flush, store append, page cache,
// query execute — is rdtsc-sampled 1-in-N, FILE gets flamegraph-compatible
// folded stacks (render with flamegraph.pl), and the report gains a
// cycles-per-packet attribution table. --lineage-out FILE turns on report
// lineage tracing: every (host, epoch) report batch is tracked from its
// uplink flush through frames, retransmits, shard decode, analyzer ingest,
// and store spill to its final confidence verdict; FILE gets the per-epoch
// audit JSONL (deterministic for a fixed seed) and, combined with
// --trace-out, the Chrome trace shows each epoch's hops causally linked by
// flow arrows.
//
// --store-dir DIR attaches the durable segment store (umon::store): every
// curve fragment the analyzer ingests is written through to append-only
// segment files under DIR, sealed once per tick (fsync barrier), and tiered
// by the wavelet compactor as it ages. Reopen the directory afterwards with
// umon_query. --store-tier-budget K sets the per-flow-chunk coefficient
// budget (tier-1 keeps K/2, tier-2 keeps K/4; default 64).
//
// --serve-port N embeds the live observability plane (umon::serve): a
// single-threaded epoll HTTP/1.1 server on 127.0.0.1:N (N=0 picks an
// ephemeral port; --serve-port-file writes the bound port for scripts)
// exposing /metrics, /health, /health/alarms, /dashboard, /prof,
// /lineage[/{host}/{epoch}], /api/v1/query (same parameters and output
// bytes as umon_query --json/--csv), /api/v1/status, and /api/v1/stream
// (SSE: per-tick health samples plus curve deltas). Snapshots publish on
// the simulation's tick cadence — never the wall clock — so the served
// bytes stay deterministic for a fixed seed. After the report prints,
// --serve-linger S keeps the server up for at most S seconds (or until
// GET /api/v1/shutdown) so external scrapers can read the finished run.
//
// Example:
//   ./build/examples/umon_sim --workload hadoop --load 0.35 --sample-bits 4
//   ./build/examples/umon_sim --collector-shards 4 --report-loss 0.01
//   ./build/examples/umon_sim --metrics-out metrics.prom --trace-out t.json
//   ./build/examples/umon_sim --health-out health.jsonl --report-loss 0.05
//   ./build/examples/umon_sim --fault-plan tools/faultplans/burst_loss.plan
//       --uplink-reliable --health-out chaos.jsonl   (one command line)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

#include "analyzer/analyzer.hpp"
#include "analyzer/groundtruth.hpp"
#include "analyzer/metrics.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "health/health.hpp"
#include "netsim/network.hpp"
#include "netsim/upload_channel.hpp"
#include "obs/lineage.hpp"
#include "obs/prof.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/reliable.hpp"
#include "serve/endpoints.hpp"
#include "serve/server.hpp"
#include "sketch/wavesketch_full.hpp"
#include "store/io.hpp"
#include "store/store.hpp"
#include "uevent/acl.hpp"
#include "uevent/detector.hpp"
#include "workload/generator.hpp"

namespace {

using namespace umon;

struct Options {
  workload::WorkloadKind kind = workload::WorkloadKind::kHadoop;
  double load = 0.15;
  Nanos duration = 20 * kMilli;
  int sample_bits = 6;
  std::size_t k = 64;
  std::uint32_t width = 256;
  int depth = 3;
  bool pfc = false;
  bool dctcp = false;
  std::uint64_t seed = 7;
  int collector_shards = 2;
  double report_loss = 0.0;
  std::string metrics_out;   ///< Prometheus text snapshot path ("" = off)
  std::string trace_out;     ///< Chrome trace JSON path ("" = off)
  std::string log_level;     ///< "" = leave logger at its default (warn)
  std::string health_out;    ///< health JSONL path ("" = health off)
  Nanos health_interval = 500 * kMicro;  ///< tick = reporting period
  std::string health_alarms;  ///< "" = HealthMonitor::default_alarms()
  std::string fault_plan;     ///< chaos schedule path ("" = no injection)
  bool uplink_reliable = false;
  std::size_t uplink_retx_buffer = 1024;
  bool gap_fill = false;
  bool require_recovered = false;  ///< exit 1 on any unrecovered epoch
  std::string store_dir;           ///< durable segment store ("" = off)
  std::size_t store_tier_budget = 64;
  std::string disk_fault_plan;  ///< store I/O chaos schedule ("" = off)
  int scrub_interval = 0;       ///< scrub every N ticks (0 = end-only)
  std::string scrub_audit;      ///< scrub findings JSONL path ("" = off)
  std::string prof_out;     ///< folded-stack output path ("" = profiler off)
  std::string lineage_out;  ///< lineage audit JSONL path ("" = lineage off)
  int serve_port = -1;          ///< -1 = serving off; 0 = ephemeral port
  std::string serve_port_file;  ///< write the bound port here (for scripts)
  double serve_linger = 0.0;    ///< seconds to keep serving after the run

  [[nodiscard]] bool serve_requested() const { return serve_port >= 0; }
  [[nodiscard]] bool telemetry_requested() const {
    return !metrics_out.empty() || !trace_out.empty();
  }
  [[nodiscard]] bool health_requested() const { return !health_out.empty(); }
  [[nodiscard]] bool store_requested() const { return !store_dir.empty(); }
  [[nodiscard]] bool scrub_requested() const {
    return scrub_interval > 0 || !disk_fault_plan.empty();
  }
  [[nodiscard]] bool lineage_requested() const { return !lineage_out.empty(); }
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string v = next("--workload");
      if (v == "websearch") {
        opt.kind = workload::WorkloadKind::kWebSearch;
      } else if (v == "hadoop") {
        opt.kind = workload::WorkloadKind::kHadoop;
      } else {
        std::fprintf(stderr, "unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (arg == "--load") {
      opt.load = std::atof(next("--load"));
    } else if (arg == "--ms") {
      opt.duration = static_cast<Nanos>(std::atof(next("--ms")) * 1e6);
    } else if (arg == "--sample-bits") {
      opt.sample_bits = std::atoi(next("--sample-bits"));
    } else if (arg == "--k") {
      opt.k = static_cast<std::size_t>(std::atoi(next("--k")));
    } else if (arg == "--width") {
      opt.width = static_cast<std::uint32_t>(std::atoi(next("--width")));
    } else if (arg == "--depth") {
      opt.depth = std::atoi(next("--depth"));
    } else if (arg == "--pfc") {
      opt.pfc = true;
    } else if (arg == "--dctcp") {
      opt.dctcp = true;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--collector-shards") {
      opt.collector_shards = std::atoi(next("--collector-shards"));
      if (opt.collector_shards < 1) {
        std::fprintf(stderr, "--collector-shards must be at least 1\n");
        return false;
      }
    } else if (arg == "--report-loss") {
      opt.report_loss = std::atof(next("--report-loss"));
    } else if (arg == "--metrics-out") {
      opt.metrics_out = next("--metrics-out");
    } else if (arg == "--trace-out") {
      opt.trace_out = next("--trace-out");
    } else if (arg == "--log-level") {
      opt.log_level = next("--log-level");
    } else if (arg == "--health-out") {
      opt.health_out = next("--health-out");
    } else if (arg == "--health-interval") {
      opt.health_interval =
          static_cast<Nanos>(std::atof(next("--health-interval"))) * kMicro;
      // The epoch pipeline seals one tick late; the tick must cover the
      // upload channel's base delay + jitter (50 + 20 us) so every payload
      // of epoch N has landed before the N+1 tick seals it.
      if (opt.health_interval < 100 * kMicro) {
        opt.health_interval = 100 * kMicro;
      }
    } else if (arg == "--health-alarms") {
      opt.health_alarms = next("--health-alarms");
    } else if (arg == "--fault-plan") {
      opt.fault_plan = next("--fault-plan");
    } else if (arg == "--uplink-reliable") {
      opt.uplink_reliable = true;
    } else if (arg == "--uplink-retx-buffer") {
      opt.uplink_retx_buffer =
          static_cast<std::size_t>(std::atoll(next("--uplink-retx-buffer")));
    } else if (arg == "--gap-fill") {
      opt.gap_fill = true;
    } else if (arg == "--require-recovered") {
      opt.require_recovered = true;
    } else if (arg == "--store-dir") {
      opt.store_dir = next("--store-dir");
    } else if (arg == "--store-tier-budget") {
      opt.store_tier_budget =
          static_cast<std::size_t>(std::atoll(next("--store-tier-budget")));
      if (opt.store_tier_budget < 4) opt.store_tier_budget = 4;
    } else if (arg == "--disk-fault-plan") {
      opt.disk_fault_plan = next("--disk-fault-plan");
    } else if (arg == "--scrub-interval") {
      opt.scrub_interval = std::atoi(next("--scrub-interval"));
      if (opt.scrub_interval < 0) opt.scrub_interval = 0;
    } else if (arg == "--scrub-audit") {
      opt.scrub_audit = next("--scrub-audit");
    } else if (arg == "--prof-out") {
      opt.prof_out = next("--prof-out");
    } else if (arg == "--lineage-out") {
      opt.lineage_out = next("--lineage-out");
    } else if (arg == "--serve-port") {
      opt.serve_port = std::atoi(next("--serve-port"));
      if (opt.serve_port < 0 || opt.serve_port > 0xFFFF) {
        std::fprintf(stderr, "--serve-port must be 0..65535\n");
        return false;
      }
    } else if (arg == "--serve-port-file") {
      opt.serve_port_file = next("--serve-port-file");
    } else if (arg == "--serve-linger") {
      opt.serve_linger = std::atof(next("--serve-linger"));
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::printf(
        "usage: umon_sim [--workload websearch|hadoop] [--load F] [--ms N]\n"
        "                [--sample-bits N] [--k N] [--width N] [--depth N]\n"
        "                [--pfc] [--dctcp] [--seed N]\n"
        "                [--collector-shards N] [--report-loss F]\n"
        "                [--metrics-out FILE] [--trace-out FILE]\n"
        "                [--log-level trace|debug|info|warn|error|off]\n"
        "                [--health-out FILE] [--health-interval US]\n"
        "                [--health-alarms 'rule; rule; ...']\n"
        "                [--fault-plan FILE] [--uplink-reliable]\n"
        "                [--uplink-retx-buffer N] [--gap-fill]\n"
        "                [--require-recovered]\n"
        "                [--store-dir DIR] [--store-tier-budget K]\n"
        "                [--disk-fault-plan FILE] [--scrub-interval N]\n"
        "                [--scrub-audit FILE]\n"
        "                [--prof-out FILE] [--lineage-out FILE]\n"
        "                [--serve-port N] [--serve-port-file FILE]\n"
        "                [--serve-linger SECONDS]\n"
        "--health-interval US is the reporting period: every host uploads one\n"
        "epoch per tick of US microseconds (default 500, min 100).\n"
        "--collector-shards N must be at least 1 (default 2).\n");
    return 2;
  }

  if (!opt.log_level.empty()) {
    telemetry::Logger::global().set_level(
        telemetry::parse_log_level(opt.log_level));
  }
  if (opt.telemetry_requested()) {
    // Detailed self-monitoring: latency histograms and (if requested) spans.
    telemetry::set_detail_enabled(true);
  }
  if (!opt.trace_out.empty()) {
    telemetry::TraceRecorder::global().enable();
  }
  if (!opt.prof_out.empty()) {
    // Calibrates rdtsc (~2 ms spin) and starts 1-in-N sampling on every
    // instrumented hot path; the run's own packet work is the workload.
    obs::prof_enable();
  }

  netsim::NetworkConfig cfg;
  cfg.queue_sample_interval = 0;
  cfg.pfc.enabled = opt.pfc;
  cfg.seed = opt.seed;
  auto net = netsim::Network::fat_tree(cfg, 4);

  sketch::WaveSketchParams sp;
  sp.depth = opt.depth;
  sp.width = opt.width;
  sp.levels = 8;
  sp.k = opt.k;
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches;
  for (int h = 0; h < net->host_count(); ++h) {
    sketches.push_back(std::make_unique<sketch::WaveSketchFull>(sp));
  }

  // Chaos schedule, parsed before anything allocates so a bad plan exits
  // fast with a line number.
  std::unique_ptr<resilience::FaultInjector> injector;
  if (!opt.fault_plan.empty()) {
    std::string err;
    auto plan = resilience::FaultPlan::parse_file(opt.fault_plan, &err);
    if (!plan) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", err.c_str());
      return 2;
    }
    injector = std::make_unique<resilience::FaultInjector>(std::move(*plan));
  }
  // Disk-fault schedule for the segment store. Same plan format, separate
  // file: the channel injector and the I/O shim each consume their own
  // seeded stream, so one layer's chaos never perturbs the other's.
  std::unique_ptr<store::FaultyIo> disk_io;
  if (!opt.disk_fault_plan.empty()) {
    if (!opt.store_requested()) {
      std::fprintf(stderr, "--disk-fault-plan requires --store-dir\n");
      return 2;
    }
    std::string err;
    auto plan = resilience::FaultPlan::parse_file(opt.disk_fault_plan, &err);
    if (!plan) {
      std::fprintf(stderr, "bad --disk-fault-plan: %s\n", err.c_str());
      return 2;
    }
    disk_io = std::make_unique<store::FaultyIo>(*plan);
  }

  // The analyzer and the collector tier exist before the simulation
  // starts: every tick streams one epoch through them mid-run.
  analyzer::Analyzer an;
  an.set_gap_fill(opt.gap_fill);
  // Lineage tracker outlives every component it taps (link, collector,
  // analyzer, store all hold raw pointers into it).
  std::unique_ptr<obs::LineageTracker> lineage;
  if (opt.lineage_requested()) {
    lineage = std::make_unique<obs::LineageTracker>();
    an.set_lineage(lineage.get());
  }
  // Durable store: attached as a write-through sink before any ingestion so
  // every curve fragment the analyzer absorbs also lands in a segment file.
  std::unique_ptr<store::Store> curve_store;
  store::RecoveryInfo store_recovery;
  if (opt.store_requested()) {
    store::StoreConfig scfg;
    scfg.dir = opt.store_dir;
    scfg.tier_budget = opt.store_tier_budget;
    scfg.io = disk_io.get();
    curve_store = store::Store::open(scfg, &store_recovery);
    if (!curve_store) {
      std::fprintf(stderr, "cannot open --store-dir %s\n",
                   opt.store_dir.c_str());
      return 2;
    }
    an.set_curve_sink(curve_store.get());
    if (lineage) curve_store->set_lineage(lineage.get());
  }
  collector::CollectorConfig ccfg;
  ccfg.shards = opt.collector_shards;
  collector::Collector col(ccfg, an);
  if (lineage) col.set_lineage(lineage.get());

  netsim::UploadChannelConfig ucfg;
  ucfg.loss_rate = opt.report_loss;
  ucfg.jitter = 20 * kMicro;
  ucfg.seed = opt.seed;
  netsim::UploadChannel channel(ucfg, nullptr);
  std::unique_ptr<netsim::UploadChannel> reverse;
  if (opt.uplink_reliable) {
    // Acks ride their own channel instance with the same loss model — a
    // reliable protocol over a reliable reverse path would be cheating.
    netsim::UploadChannelConfig rcfg = ucfg;
    rcfg.seed = opt.seed ^ 0xAC4BAC4ULL;
    reverse = std::make_unique<netsim::UploadChannel>(rcfg, nullptr);
  }
  if (injector) {
    // One injector serves both directions: single-threaded send order
    // keeps the shared RNG stream reproducible.
    auto hook = [inj = injector.get()](
                    int host, Nanos now,
                    std::vector<std::uint8_t>& payload) -> netsim::SendFault {
      const resilience::FaultAction a = inj->on_send(host, now, payload);
      return netsim::SendFault{a.drop, a.duplicates, a.extra_delay};
    };
    channel.set_fault_hook(hook);
    if (reverse) reverse->set_fault_hook(hook);
  }

  // Every payload goes through the ReliableLink; in passthrough mode it
  // forwards verbatim over the lossy channel.
  resilience::ReliableConfig rcfg;
  rcfg.enabled = opt.uplink_reliable;
  rcfg.retx_buffer_frames = opt.uplink_retx_buffer;
  resilience::ReliableLink link(rcfg, channel, reverse.get());
  if (lineage) link.set_lineage(lineage.get());
  link.set_deliver_hook([&col](int host, std::uint32_t epoch,
                               std::vector<std::uint8_t>&& payload) {
    // Malformed payloads surface in the end-of-run collector stats.
    (void)col.submit_report_payload(host, epoch, std::move(payload));
  });
  channel.set_sink([&link](netsim::UploadChannel::Delivery&& d) {
    link.on_forward_delivery(std::move(d));
  });
  if (reverse) {
    reverse->set_sink([&link](netsim::UploadChannel::Delivery&& d) {
      link.on_reverse_delivery(std::move(d));
    });
  }

  std::unique_ptr<health::HealthMonitor> mon;
  if (opt.health_requested()) {
    health::HealthConfig hcfg;
    hcfg.interval = opt.health_interval;
    hcfg.alarms = opt.health_alarms;
    mon = std::make_unique<health::HealthMonitor>(hcfg);
    if (!mon->alarm_parse_error().empty()) {
      std::fprintf(stderr, "bad --health-alarms: %s\n",
                   mon->alarm_parse_error().c_str());
      return 2;
    }
    mon->add_registry(&telemetry::MetricRegistry::global());
    mon->add_registry(&col.telemetry_registry());
    mon->add_registry(&link.telemetry_registry());
    if (curve_store) mon->add_registry(&curve_store->telemetry_registry());
    mon->set_analyzer(&an);
    col.set_decode_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kCollectorDecode, t);
    });
    col.set_curve_event_hook([m = mon.get()](Nanos t) {
      m->watermarks().note(health::Stage::kAnalyzerCurve, t);
    });
  }

  // Live observability plane: the server thread owns every socket; the
  // driver only publishes snapshot strings and SSE events into it (both
  // internally synchronized), so nothing here slows the packet path.
  std::unique_ptr<serve::Server> http_server;
  std::unique_ptr<serve::Endpoints> http_endpoints;
  if (opt.serve_requested()) {
    serve::ServeConfig scfg;
    scfg.port = static_cast<std::uint16_t>(opt.serve_port);
    http_server = std::make_unique<serve::Server>(scfg);
    serve::Services svc;
    svc.registries.push_back(&telemetry::MetricRegistry::global());
    svc.registries.push_back(&col.telemetry_registry());
    svc.registries.push_back(&link.telemetry_registry());
    if (curve_store) {
      svc.registries.push_back(&curve_store->telemetry_registry());
      svc.store = curve_store.get();
      svc.store_dir = opt.store_dir;
      svc.store_rinfo = store_recovery;
    }
    svc.lineage = lineage.get();
    http_endpoints = std::make_unique<serve::Endpoints>(*http_server, svc);
    if (!http_server->start()) {
      std::fprintf(stderr, "cannot serve on port %d\n", opt.serve_port);
      return 2;
    }
    if (!opt.serve_port_file.empty()) {
      std::ofstream pf(opt.serve_port_file);
      if (!pf) {
        std::fprintf(stderr, "cannot write %s\n",
                     opt.serve_port_file.c_str());
        return 2;
      }
      pf << http_server->port() << "\n";
    }
  }

  analyzer::GroundTruth truth;
  std::uint64_t packets = 0;
  net->set_host_tx_hook([&, m = mon.get()](int host, const PacketRecord& r) {
    ++packets;
    truth.add(r.flow, r.timestamp, r.size);
    sketches[static_cast<std::size_t>(host)]->update(
        r.flow, r.timestamp, static_cast<Count>(r.size));
    if (m != nullptr) {
      m->watermarks().note(health::Stage::kPacketEvent, r.timestamp);
      m->probe().observe(r.flow, r.timestamp, r.size);
    }
  });

  uevent::EventScorer scorer;
  uevent::AclMirror mirror(
      uevent::AclRule::ce_sampled(opt.sample_bits),
      [&scorer](const uevent::MirroredPacket& m) { scorer.collect(m); });
  net->set_switch_enqueue_hook(
      [&](netsim::PortId port, const PacketRecord& pkt) {
        mirror.on_switch_enqueue(port, pkt, pkt.timestamp);
      });

  workload::WorkloadParams wp;
  wp.hosts = net->host_count();
  wp.load = opt.load;
  wp.duration = opt.duration;
  wp.seed = opt.seed;
  workload::Workload w = workload::generate(opt.kind, wp);
  if (opt.dctcp) {
    for (auto& f : w.flows) f.use_dctcp = true;
  }
  workload::install(w, *net);

  const Nanos horizon = opt.duration + 5 * kMilli;

  // Scrub plane: periodic CRC re-verification of the sealed segments
  // against the raw disk bytes, with every pass accumulated for the report
  // and (optionally) streamed to a JSONL audit. Everything in the audit is
  // derived from the seeded simulation — pass index, segment ids, file
  // offsets — so two same-seed chaos runs write byte-identical audits.
  store::ScrubReport scrub_total;
  std::uint64_t scrub_passes = 0;
  std::ofstream scrub_audit_os;
  if (!opt.scrub_audit.empty()) {
    scrub_audit_os.open(opt.scrub_audit);
    if (!scrub_audit_os) {
      std::fprintf(stderr, "cannot write %s\n", opt.scrub_audit.c_str());
      return 1;
    }
  }
  auto run_scrub = [&] {
    if (!curve_store) return;
    const store::ScrubReport r = curve_store->scrub();
    ++scrub_passes;
    scrub_total.segments_scanned += r.segments_scanned;
    scrub_total.bytes_scanned += r.bytes_scanned;
    scrub_total.records_verified += r.records_verified;
    scrub_total.corrupt_records += r.corrupt_records;
    scrub_total.chunks_quarantined += r.chunks_quarantined;
    scrub_total.chunks_repaired += r.chunks_repaired;
    scrub_total.windows_lost += r.windows_lost;
    scrub_total.findings.insert(scrub_total.findings.end(),
                                r.findings.begin(), r.findings.end());
    if (scrub_audit_os) {
      scrub_audit_os << "{\"type\":\"scrub\",\"pass\":" << scrub_passes
                     << ",\"segments\":" << r.segments_scanned
                     << ",\"bytes\":" << r.bytes_scanned
                     << ",\"records\":" << r.records_verified
                     << ",\"corrupt\":" << r.corrupt_records
                     << ",\"quarantined\":" << r.chunks_quarantined
                     << ",\"repaired\":" << r.chunks_repaired
                     << ",\"windows_lost\":" << r.windows_lost
                     << ",\"findings\":[";
      for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const store::ScrubFinding& f = r.findings[i];
        scrub_audit_os << (i > 0 ? "," : "") << "{\"segment\":" << f.segment_id
                       << ",\"tier\":" << static_cast<int>(f.tier)
                       << ",\"offset\":" << f.offset
                       << ",\"length\":" << f.length
                       << ",\"quarantined\":" << f.chunks_quarantined
                       << ",\"repaired\":" << f.chunks_repaired << "}";
      }
      scrub_audit_os << "]}\n";
      scrub_audit_os.flush();
    }
  };

  // Durability barrier: fsync everything the analyzer has absorbed so far
  // into the segment store, then let the compactor age sealed segments. The
  // store-seal watermark advances to the analyzer-curve frontier — the store
  // just made durable exactly what the analyzer had ingested.
  std::uint64_t checkpoint_n = 0;
  auto store_checkpoint = [&] {
    if (!curve_store) return;
    (void)curve_store->seal_epoch();
    curve_store->maintain();
    ++checkpoint_n;
    if (opt.scrub_interval > 0 &&
        checkpoint_n % static_cast<std::uint64_t>(opt.scrub_interval) == 0) {
      run_scrub();
    }
    if (mon) {
      const Nanos hi =
          mon->watermarks().high(health::Stage::kAnalyzerCurve);
      if (hi != health::Watermarks::kUnset) {
        mon->watermarks().note(health::Stage::kStoreSeal, hi);
      }
    }
  };

  // Publish the serve tier's snapshot slots and SSE events. Driven by the
  // simulation clock (tick boundaries and the end of the run), never the
  // wall clock, so two same-seed runs serve byte-identical artifacts to
  // an identical request script.
  std::uint64_t serve_last_generation = 0;
  auto serve_publish = [&](Nanos now) {
    if (!http_server) return;
    if (mon) {
      std::ostringstream hj;
      mon->write_jsonl(hj);
      http_server->set_snapshot("health_jsonl", hj.str());
      std::ostringstream ha;
      mon->write_alarms_jsonl(ha);
      http_server->set_snapshot("health_alarms", ha.str());
      std::ostringstream hh;
      mon->write_html(hh, /*live=*/true);
      http_server->set_snapshot("health_html", hh.str());
      std::ostringstream ls;
      mon->write_live_sample(ls);
      http_server->broadcast_sse("tick", ls.str());
    }
    std::size_t store_flow_count = 0;
    if (curve_store) store_flow_count = curve_store->flows().size();
    std::ostringstream st;
    st << "{\"t_ns\":" << now << ",\"packets\":" << packets
       << ",\"healthy\":"
       << (mon == nullptr || mon->healthy() ? "true" : "false");
    if (curve_store) {
      st << ",\"store_generation\":" << curve_store->generation()
         << ",\"store_flows\":" << store_flow_count;
    }
    st << "}\n";
    http_server->set_snapshot("status", st.str());
    if (curve_store) {
      const std::uint64_t gen = curve_store->generation();
      if (gen != serve_last_generation) {
        serve_last_generation = gen;
        std::ostringstream cd;
        cd << "{\"type\":\"curve\",\"t_ns\":" << now
           << ",\"generation\":" << gen
           << ",\"flows\":" << store_flow_count;
        const auto sealed = curve_store->last_sealed_epoch();
        if (sealed.has_value()) {
          cd << ",\"last_sealed_epoch\":" << *sealed;
        }
        cd << "}";
        http_server->broadcast_sse("curve", cd.str());
      }
    }
  };

  // --- tick loop -------------------------------------------------------------
  // Chunk the simulation by the reporting period. Each tick: apply due
  // shard crash/restarts, run the network, settle its counters, deliver
  // upload payloads and acks that are due, drive retransmit timers, seal
  // epochs whose delivery has settled (flagging the windows of epochs the
  // protocol declared lost), flush a fresh epoch from every non-stalled
  // host, then drain the collector so every instrument is quiescent
  // before the health sample is taken.
  const Nanos tick_len = opt.health_interval;
  std::vector<collector::HostUplink> uplinks;
  uplinks.reserve(static_cast<std::size_t>(net->host_count()));
  for (int h = 0; h < net->host_count(); ++h) {
    uplinks.emplace_back(h, /*max_reports_per_payload=*/64);
  }
  struct PendingSeal {
    int host;
    std::uint32_t epoch;
    std::uint32_t end_seq;
    WindowId wfrom;  ///< first window this epoch covers
    WindowId wto;    ///< exclusive
    Nanos end_time;  ///< event time the epoch runs up to
  };
  std::vector<PendingSeal> awaiting;
  std::vector<Nanos> last_flush(
      static_cast<std::size_t>(net->host_count()), 0);

  // Window flags wait for the next drain. A shard worker may still be
  // flushing an earlier-sealed epoch into the analyzer, and the store
  // stamps each record with the flags present when it lands, so flagging
  // from this thread at once would race that flush and let thread timing
  // reach the segment bytes.
  struct PendingMark {
    WindowId from;
    WindowId to;
    analyzer::WindowConfidence conf;
  };
  std::vector<PendingMark> marks;
  auto apply_marks = [&] {
    for (const PendingMark& m : marks) an.mark_windows(m.from, m.to, m.conf);
    marks.clear();
  };

  // Sequence-gap losses found at seal time flag the epoch's windows, so
  // an unrecovered (or unprotected) loss can never read back as a
  // genuinely idle window.
  std::map<std::uint64_t, std::pair<WindowId, WindowId>> epoch_windows;
  col.set_epoch_loss_hook([&](int host, std::uint32_t epoch,
                              std::uint64_t lost) {
    if (lost == 0) return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host))
         << 32) | epoch;
    auto it = epoch_windows.find(key);
    if (it == epoch_windows.end()) return;
    marks.push_back({it->second.first, it->second.second,
                     analyzer::WindowConfidence::kLost});
    if (lineage) {
      lineage->on_verdict(static_cast<std::uint32_t>(host), epoch,
                          obs::Verdict::kLost);
    }
  });
  col.start();

  // Seal every epoch in `awaiting` whose uplink delivery has settled
  // (always true in passthrough mode: its payloads either landed within
  // the previous tick or are gone for good). Seals stay in flush order
  // per host — the collector's gap accounting chains epoch_start_seq
  // from one seal to the next.
  auto seal_settled = [&](bool force) {
    std::set<int> blocked;
    auto it = awaiting.begin();
    while (it != awaiting.end()) {
      const resilience::EpochStatus st =
          link.epoch_status(it->host, it->epoch);
      if ((opt.uplink_reliable && !st.settled && !force) ||
          blocked.count(it->host) != 0) {
        blocked.insert(it->host);
        ++it;
        continue;
      }
      // The protocol's word on the epoch, mirrored into the audit.
      // Sequence-gap losses found later at seal time upgrade it via the
      // epoch-loss hook; the tracker keeps the worst.
      obs::Verdict v = obs::Verdict::kCovered;
      if (opt.uplink_reliable && !st.recovered) {
        marks.push_back(
            {it->wfrom, it->wto, analyzer::WindowConfidence::kLost});
        v = obs::Verdict::kLost;
      } else if (opt.uplink_reliable && st.retransmitted) {
        marks.push_back(
            {it->wfrom, it->wto, analyzer::WindowConfidence::kRetransmitted});
        v = obs::Verdict::kRetransmitted;
      }
      if (lineage) {
        lineage->on_verdict(static_cast<std::uint32_t>(it->host), it->epoch,
                            v);
      }
      col.seal_epoch(it->host, it->epoch, it->end_seq);
      // Settlement is the resilience watermark: every frame of this
      // epoch was delivered or explicitly declared lost.
      if (mon) {
        mon->watermarks().note(health::Stage::kResilience, it->end_time);
      }
      it = awaiting.erase(it);
    }
  };

  if (mon) mon->prime(0);
  Nanos t = 0;
  for (t = tick_len; ; t += tick_len) {
    if (t > horizon) t = horizon;
    if (injector) {
      for (const auto& ev : injector->take_due_shard_events(t)) {
        if (ev.restart) {
          col.restart_shard(ev.shard);
        } else {
          col.crash_shard(ev.shard);
        }
      }
    }
    net->run_until(t);
    net->settle_telemetry();
    channel.advance_to(t);
    if (reverse) reverse->advance_to(t);
    link.tick(t);
    // Quiesce the shards before sealing: seal-time accounting (sequence
    // gaps, crash damage) must see every batch the workers were handed.
    col.drain();
    apply_marks();
    seal_settled(/*force=*/false);
    for (int h = 0; h < net->host_count(); ++h) {
      if (injector != nullptr && injector->host_stalled(h, t)) {
        continue;  // the sketch keeps accumulating; next flush covers it
      }
      auto up = uplinks[static_cast<std::size_t>(h)].flush_epoch(
          *sketches[static_cast<std::size_t>(h)]);
      if (mon) mon->watermarks().note(health::Stage::kSketchSeal, t);
      const std::size_t hi = static_cast<std::size_t>(h);
      PendingSeal ps{h, up.epoch, up.end_seq,
                     window_of(last_flush[hi]), window_of(t), t};
      epoch_windows[(static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(h))
                     << 32) | up.epoch] = {ps.wfrom, ps.wto};
      if (lineage) {
        lineage->on_uplink_flush(static_cast<std::uint32_t>(h), up.epoch,
                                 static_cast<std::uint32_t>(up.reports),
                                 static_cast<std::uint32_t>(
                                     up.payloads.size()),
                                 static_cast<std::uint64_t>(t), ps.wfrom,
                                 ps.wto);
      }
      last_flush[hi] = t;
      for (auto& p : up.payloads) {
        link.send(h, up.epoch, std::move(p.bytes), t);
      }
      awaiting.push_back(ps);
    }
    col.drain();
    apply_marks();
    store_checkpoint();
    if (mon) mon->tick(t);
    serve_publish(t);
    if (t >= horizon) break;
  }
  net->finish();

  if (opt.uplink_reliable) {
    // Settlement tail: keep stepping simulated time so in-flight frames,
    // acks, and retransmits can land. Bounded — a frame that cannot make
    // it within the retry budget expires rather than spinning forever.
    int rounds = 0;
    while (!link.all_settled() && rounds++ < 256) {
      t += tick_len;
      channel.advance_to(t);
      if (reverse) reverse->advance_to(t);
      link.tick(t);
    }
    link.expire_outstanding();
  }
  channel.flush();
  if (reverse) reverse->flush();
  col.drain();
  apply_marks();
  seal_settled(/*force=*/true);
  col.submit_mirror_batch(scorer.mirrored());
  col.stop();
  apply_marks();
  const collector::CollectorStats cstats = col.stats();
  // The tail seals above flushed the last epochs into the analyzer (and
  // its spill sink); one final checkpoint makes them durable.
  store_checkpoint();
  // Final sample: the tail seals above are where sequence-gap losses are
  // accounted, so the closing tick is what lets a loss alarm fire even
  // when the loss only materializes at shutdown.
  if (mon) mon->tick(horizon + tick_len);
  serve_publish(horizon + tick_len);

  std::printf("uMon simulation report\n");
  std::printf("  workload:        %s, %.0f%% load, %.1f ms, %s%s\n",
              workload::to_string(opt.kind).c_str(), opt.load * 100,
              static_cast<double>(opt.duration) / 1e6,
              opt.dctcp ? "DCTCP" : "DCQCN", opt.pfc ? " + PFC" : "");
  std::printf("  flows / packets: %zu / %llu\n", w.flows.size(),
              static_cast<unsigned long long>(packets));
  std::printf("  drops:           %llu\n",
              static_cast<unsigned long long>(net->total_drops()));
  if (opt.pfc) {
    std::printf("  PFC pauses:      %llu (total paused %.1f us)\n",
                static_cast<unsigned long long>(net->pfc_stats().pause_frames),
                static_cast<double>(net->pfc_stats().total_paused) / 1e3);
  }

  // uFlow accuracy over heavy flows.
  double cos = 0, are = 0;
  int evaluated = 0;
  for (const auto& f : w.flows) {
    if (f.bytes < 100'000) continue;
    const auto gt = truth.series(f.key);
    const auto est = an.query_rate(f.key);
    if (gt.empty() || est.empty()) continue;
    std::vector<double> aligned(gt.values.size(), 0.0);
    for (std::size_t i = 0; i < aligned.size(); ++i) {
      aligned[i] = est.bytes_at(gt.w0 + static_cast<WindowId>(i));
    }
    const auto m = analyzer::curve_metrics(gt.values, aligned);
    cos += m.cosine;
    are += m.are;
    ++evaluated;
  }
  std::printf("\nuFlow (WaveSketch d=%d w=%u K=%zu)\n", opt.depth, opt.width,
              opt.k);
  if (evaluated > 0) {
    std::printf("  heavy flows evaluated: %d\n", evaluated);
    std::printf("  avg cosine similarity: %.4f\n", cos / evaluated);
    std::printf("  avg relative error:    %.4f\n", are / evaluated);
  }
  const double seconds = static_cast<double>(opt.duration) / 1e9;
  std::printf("  report bandwidth:      %.2f Mbps/host\n",
              static_cast<double>(an.report_bytes_ingested()) * 8 / seconds /
                  1e6 / net->host_count());

  // uEvent summary.
  const auto scores = scorer.score(*net);
  std::size_t severe = 0, severe_detected = 0;
  for (const auto& s : scores) {
    if (s.max_queue_bytes >= 200 * 1024) {
      ++severe;
      severe_detected += s.detected ? 1 : 0;
    }
  }
  const auto events = an.events();
  std::printf("\nuEvent (CE match, 1/%d sampling)\n", 1 << opt.sample_bits);
  std::printf("  ground-truth episodes: %zu (severe: %zu)\n", scores.size(),
              severe);
  if (severe > 0) {
    std::printf("  severe recall:         %.3f\n",
                static_cast<double>(severe_detected) /
                    static_cast<double>(severe));
  }
  std::printf("  events assembled:      %zu\n", events.size());
  std::printf("  mirror bandwidth:      %.2f Mbps (max over switches: see "
              "bench_fig15)\n",
              static_cast<double>(an.mirror_bytes_ingested()) * 8 / seconds /
                  1e6);

  std::printf("\ncollector (%d shards, %.1f%% report loss)\n",
              opt.collector_shards, opt.report_loss * 100);
  std::printf("  payloads:        %llu submitted, %llu dropped in channel, "
              "%llu malformed\n",
              static_cast<unsigned long long>(cstats.payloads_submitted),
              static_cast<unsigned long long>(channel.payloads_dropped()),
              static_cast<unsigned long long>(cstats.payloads_malformed));
  std::printf("  reports:         %llu decoded, %llu lost (seq gaps), "
              "%llu shed\n",
              static_cast<unsigned long long>(cstats.reports_decoded),
              static_cast<unsigned long long>(cstats.reports_lost),
              static_cast<unsigned long long>(cstats.reports_shed));
  const char* policy = "block";
  switch (col.config().overflow) {
    case collector::OverflowPolicy::kBlock: policy = "block"; break;
    case collector::OverflowPolicy::kDropNewest: policy = "drop-newest";
      break;
    case collector::OverflowPolicy::kDropOldest: policy = "drop-oldest";
      break;
  }
  std::printf("  queue policy:    %s — %llu batches shed (%llu rejected "
              "drop-newest, %llu evicted drop-oldest)\n",
              policy,
              static_cast<unsigned long long>(cstats.batches_shed),
              static_cast<unsigned long long>(cstats.batches_rejected),
              static_cast<unsigned long long>(cstats.batches_evicted));
  std::printf("  epochs flushed:  %llu (%llu curve fragments)\n",
              static_cast<unsigned long long>(cstats.epochs_flushed),
              static_cast<unsigned long long>(cstats.fragments_ingested));
  if (cstats.shard_crashes > 0) {
    std::printf("  shard crashes:   %llu (%llu restarts) — %llu batches / "
                "%llu staged fragments discarded while down\n",
                static_cast<unsigned long long>(cstats.shard_crashes),
                static_cast<unsigned long long>(cstats.shard_restarts),
                static_cast<unsigned long long>(cstats.batches_crashed),
                static_cast<unsigned long long>(cstats.fragments_crashed));
  }

  std::uint64_t epochs_unrecovered = 0;
  if (opt.uplink_reliable) {
    const resilience::ReliableStats rs = link.stats();
    epochs_unrecovered = rs.epochs_unrecovered;
    std::printf("\nreliable uplink (retx buffer %zu frames)\n",
                link.config().retx_buffer_frames);
    std::printf("  frames:          %llu sent, %llu retransmitted, "
                "%llu acked, %llu expired, %llu evicted\n",
                static_cast<unsigned long long>(rs.frames_sent),
                static_cast<unsigned long long>(rs.frames_retransmitted),
                static_cast<unsigned long long>(rs.frames_acked),
                static_cast<unsigned long long>(rs.frames_expired),
                static_cast<unsigned long long>(rs.frames_evicted));
    std::printf("  receiver:        %llu corrupt rejected, %llu duplicates "
                "suppressed\n",
                static_cast<unsigned long long>(rs.frames_corrupt),
                static_cast<unsigned long long>(rs.frames_duplicate));
    std::printf("  acks:            %llu sent, %llu received\n",
                static_cast<unsigned long long>(rs.acks_sent),
                static_cast<unsigned long long>(rs.acks_received));
    std::printf("  epochs:          %llu settled — %llu recovered, "
                "%llu unrecovered\n",
                static_cast<unsigned long long>(rs.epochs_settled),
                static_cast<unsigned long long>(rs.epochs_recovered),
                static_cast<unsigned long long>(rs.epochs_unrecovered));
  }
  const std::size_t retx_windows =
      an.curves().marked_count(analyzer::WindowConfidence::kRetransmitted);
  const std::size_t lost_windows =
      an.curves().marked_count(analyzer::WindowConfidence::kLost);
  if (retx_windows > 0 || lost_windows > 0) {
    std::printf("  window flags:    %zu retransmitted, %zu lost%s\n",
                retx_windows, lost_windows,
                an.curves().gap_fill() ? " (gap-filled on read)" : "");
  }
  if (injector) {
    const resilience::FaultStats& fs = injector->stats();
    std::printf("\nfault injection (%s)\n", opt.fault_plan.c_str());
    std::printf("  injected:        %llu drops, %llu duplicates, "
                "%llu corruptions, %llu delays, %llu stalled flushes\n",
                static_cast<unsigned long long>(fs.drops),
                static_cast<unsigned long long>(fs.duplicates),
                static_cast<unsigned long long>(fs.corruptions),
                static_cast<unsigned long long>(fs.delays),
                static_cast<unsigned long long>(fs.stalled_flushes));
  }

  if (disk_io) {
    const store::DiskFaultStats& ds = disk_io->stats();
    std::printf("\ndisk fault injection (%s)\n", opt.disk_fault_plan.c_str());
    std::printf("  syscalls:        %llu pwrites, %llu fsyncs, "
                "%llu mutating ops\n",
                static_cast<unsigned long long>(ds.pwrites),
                static_cast<unsigned long long>(ds.fsyncs),
                static_cast<unsigned long long>(disk_io->mutating_ops()));
    std::printf("  injected:        %llu write errors, %llu short writes, "
                "%llu lying fsyncs (%llu bytes dropped)\n",
                static_cast<unsigned long long>(ds.write_errors),
                static_cast<unsigned long long>(ds.short_writes),
                static_cast<unsigned long long>(ds.fsync_failures),
                static_cast<unsigned long long>(ds.dropped_bytes));
    if (ds.corruptions > 0) {
      std::printf("  media rot:       %llu corruption(s), %llu bit(s) "
                  "flipped\n",
                  static_cast<unsigned long long>(ds.corruptions),
                  static_cast<unsigned long long>(ds.bits_flipped));
    }
  }

  // Closing scrub: whatever rot the plan injected after the last periodic
  // pass must be found, quarantined, and accounted before the report (and
  // before the --require-recovered verdict).
  if (curve_store && opt.scrub_requested()) run_scrub();

  if (curve_store) {
    const store::StoreStats ss = curve_store->stats();
    std::printf("\ndurable store (%s, tier budget K=%zu)\n",
                opt.store_dir.c_str(), opt.store_tier_budget);
    if (store_recovery.segments_opened > 0 ||
        store_recovery.torn_tails_truncated > 0 ||
        store_recovery.tmp_files_removed > 0) {
      std::printf("  recovery:        %zu segments reopened, %zu torn tails "
                  "truncated, %zu tmp removed, %zu records\n",
                  store_recovery.segments_opened,
                  store_recovery.torn_tails_truncated,
                  store_recovery.tmp_files_removed,
                  store_recovery.records_recovered);
    }
    std::printf("  appends:         %llu records, %.2f MB payload, "
                "%llu epochs sealed\n",
                static_cast<unsigned long long>(ss.appends),
                static_cast<double>(ss.append_bytes) / 1e6,
                static_cast<unsigned long long>(ss.epochs_sealed));
    for (int tier = 0; tier < 3; ++tier) {
      const store::TierUsage& tu = ss.tiers[tier];
      if (tu.segments == 0) continue;
      std::printf("  tier %d:          %zu segment(s), %.2f MB\n", tier,
                  tu.segments, static_cast<double>(tu.bytes) / 1e6);
    }
    if (ss.compactions_tier1 + ss.compactions_tier2 > 0) {
      std::printf("  compactions:     %llu to tier 1, %llu to tier 2 "
                  "(%.2f MB -> %.2f MB)\n",
                  static_cast<unsigned long long>(ss.compactions_tier1),
                  static_cast<unsigned long long>(ss.compactions_tier2),
                  static_cast<double>(ss.compaction_input_bytes) / 1e6,
                  static_cast<double>(ss.compaction_output_bytes) / 1e6);
    }
    std::printf("  page cache:      %llu hits, %llu misses, %llu evictions "
                "(hit ratio %.2f)\n",
                static_cast<unsigned long long>(ss.cache.hits),
                static_cast<unsigned long long>(ss.cache.misses),
                static_cast<unsigned long long>(ss.cache.evictions),
                ss.cache.hit_ratio());
    if (ss.seal_failures > 0) {
      std::printf("  seal failures:   %llu epoch seal(s) hit I/O errors "
                  "(recovered on reopen)\n",
                  static_cast<unsigned long long>(ss.seal_failures));
    }
    if (scrub_passes > 0) {
      std::printf("  scrub:           %llu pass(es), %zu record(s) verified "
                  "(%.2f MB raw)\n",
                  static_cast<unsigned long long>(scrub_passes),
                  scrub_total.records_verified,
                  static_cast<double>(scrub_total.bytes_scanned) / 1e6);
      if (scrub_total.corrupt_records > 0) {
        std::printf("  quarantine:      %zu corrupt record(s) -> %zu chunk(s) "
                    "quarantined, %zu repaired from shadow, %llu window(s) "
                    "lost\n",
                    scrub_total.corrupt_records,
                    scrub_total.chunks_quarantined,
                    scrub_total.chunks_repaired,
                    static_cast<unsigned long long>(scrub_total.windows_lost));
      } else {
        std::printf("  quarantine:      clean — no corrupt records found\n");
      }
      if (!opt.scrub_audit.empty()) {
        std::printf("  scrub audit:     %s\n", opt.scrub_audit.c_str());
      }
    }
    std::printf("  query it back:   umon_query --store-dir %s --op sum\n",
                opt.store_dir.c_str());
  }

  if (mon) {
    std::printf("\nhealth (sampled every %.0f us)\n",
                static_cast<double>(opt.health_interval) / 1e3);
    std::printf("  samples:         %llu ticks, %zu series\n",
                static_cast<unsigned long long>(mon->ticks()),
                mon->store().series_count());
    std::vector<health::Stage> stages{
        health::Stage::kPacketEvent, health::Stage::kSketchSeal,
        health::Stage::kCollectorDecode, health::Stage::kAnalyzerCurve,
        health::Stage::kResilience};
    if (curve_store) stages.push_back(health::Stage::kStoreSeal);
    for (health::Stage s : stages) {
      std::printf("  watermark %-18s high %.1f us (lag %.1f us)\n",
                  health::to_string(s),
                  static_cast<double>(mon->watermarks().high(s)) / 1e3,
                  static_cast<double>(mon->watermarks().freshness_lag(
                      s, mon->last_tick())) / 1e3);
    }
    const health::RingStore::Entry* probe_are =
        mon->store().find("umon_health_probe_are");
    if (probe_are != nullptr && probe_are->ring.size() > 0) {
      const health::RingStore::Entry* probe_nmse =
          mon->store().find("umon_health_probe_nmse");
      std::printf("  fidelity probe:  ARE %.4f, NMSE %.4f (%zu flows)\n",
                  probe_are->ring.last(),
                  probe_nmse != nullptr ? probe_nmse->ring.last() : 0.0,
                  mon->probe().probed_flows());
    }
    for (std::size_t i = 0; i < mon->alarms().specs().size(); ++i) {
      if (mon->alarms().fire_count(i) == 0) continue;
      std::printf("  ALARM fired %llux: %s\n",
                  static_cast<unsigned long long>(mon->alarms().fire_count(i)),
                  mon->alarms().specs()[i].text.c_str());
    }
    std::printf("  verdict:         %s\n",
                mon->healthy() ? "HEALTHY" : "UNHEALTHY");

    std::ofstream os(opt.health_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.health_out.c_str());
      return 1;
    }
    mon->write_jsonl(os);
    const std::string html_path = opt.health_out + ".html";
    std::ofstream ho(html_path);
    if (!ho) {
      std::fprintf(stderr, "cannot write %s\n", html_path.c_str());
      return 1;
    }
    mon->write_html(ho);
    std::printf("  health output:   %s (+ %s)\n", opt.health_out.c_str(),
                html_path.c_str());
  }

  if (lineage) {
    const auto epochs = lineage->snapshot();
    std::size_t retransmitted = 0, lost = 0;
    for (const auto& e : epochs) {
      if (e.verdict == obs::Verdict::kLost) ++lost;
      if (e.verdict == obs::Verdict::kRetransmitted) ++retransmitted;
    }
    std::ofstream os(opt.lineage_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.lineage_out.c_str());
      return 1;
    }
    lineage->write_audit_jsonl(os);
    std::printf("\nlineage audit (%s)\n", opt.lineage_out.c_str());
    std::printf("  epochs traced:   %zu (%zu retransmitted, %zu lost)\n",
                epochs.size(), retransmitted, lost);
    if (!opt.trace_out.empty()) {
      std::printf("  trace arrows:    open %s in ui.perfetto.dev — each "
                  "epoch's hops are flow-linked\n",
                  opt.trace_out.c_str());
    }
  }

  if (!opt.prof_out.empty()) {
    obs::prof_disable();
    std::ofstream os(opt.prof_out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.prof_out.c_str());
      return 1;
    }
    obs::prof_write_folded(os);
    obs::prof_publish(telemetry::MetricRegistry::global());
    const double cpns = obs::prof_cycles_per_ns();
    std::printf("\ncycle profile (rdtsc, %.2f cycles/ns)\n", cpns);
    std::printf("  %-16s %10s %7s %14s %12s %10s\n", "stage", "samples",
                "1-in-N", "est cycles", "cyc/packet", "ns/call");
    for (const auto& s : obs::prof_snapshot()) {
      // Sampling un-bias: each sample stands for `period` calls.
      const double est =
          static_cast<double>(s.sampled_cycles) * s.period;
      const double per_call =
          s.samples > 0 ? static_cast<double>(s.sampled_cycles) /
                              static_cast<double>(s.samples)
                        : 0.0;
      std::printf("  %-16s %10llu %7u %14.0f %12.2f %10.1f\n", s.name,
                  static_cast<unsigned long long>(s.samples), s.period, est,
                  packets > 0 ? est / static_cast<double>(packets) : 0.0,
                  cpns > 0 ? per_call / cpns : per_call);
    }
    std::printf("  folded stacks:   %s (render: flamegraph.pl %s > "
                "prof.svg)\n",
                opt.prof_out.c_str(), opt.prof_out.c_str());
  }

  // --- self-monitoring ------------------------------------------------------
  if (opt.telemetry_requested()) {
    const telemetry::MetricRegistry* regs[] = {
        &telemetry::MetricRegistry::global(),
        &col.telemetry_registry()};
    const auto samples = telemetry::merged_snapshot(regs);

    std::printf("\nself-monitoring\n");
    // The busiest latency histograms: where this run spent its time.
    std::vector<const telemetry::MetricRegistry::Sample*> hists;
    for (const auto& s : samples) {
      if (s.kind == telemetry::MetricRegistry::Kind::kHistogram &&
          s.hist_count > 0) {
        hists.push_back(&s);
      }
    }
    std::sort(hists.begin(), hists.end(), [](const auto* a, const auto* b) {
      return a->hist_count > b->hist_count;
    });
    if (hists.size() > 5) hists.resize(5);
    for (const auto* h : hists) {
      std::printf("  %-42s %8llu obs, mean %.2f\n", h->name.c_str(),
                  static_cast<unsigned long long>(h->hist_count),
                  h->hist_sum / static_cast<double>(h->hist_count));
    }
    // Every way the pipeline lost or discarded data, by counter. Includes
    // trace-ring overwrites (umon_telemetry_trace_dropped_spans_total).
    std::uint64_t total_lost = 0;
    for (const auto& s : samples) {
      if (s.kind != telemetry::MetricRegistry::Kind::kCounter ||
          s.counter_value == 0) {
        continue;
      }
      const bool lossy = s.name.find("drop") != std::string::npos ||
                         s.name.find("_shed") != std::string::npos ||
                         s.name.find("lost") != std::string::npos ||
                         s.name.find("malformed") != std::string::npos ||
                         s.name.find("evict") != std::string::npos ||
                         s.name.find("reject") != std::string::npos ||
                         s.name.find("prunes") != std::string::npos;
      if (!lossy) continue;
      std::printf("  %-42s %8llu\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.counter_value));
      total_lost += s.counter_value;
    }
    std::printf("  total drops/sheds/prunes:                  %8llu\n",
                static_cast<unsigned long long>(total_lost));

    if (!opt.metrics_out.empty()) {
      std::ofstream os(opt.metrics_out);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", opt.metrics_out.c_str());
        return 1;
      }
      telemetry::write_prometheus(os, regs);
      std::printf("  metrics snapshot:      %s (%zu series)\n",
                  opt.metrics_out.c_str(), samples.size());
    }
    if (!opt.trace_out.empty()) {
      auto& rec = telemetry::TraceRecorder::global();
      std::ofstream os(opt.trace_out);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 1;
      }
      rec.write_chrome_json(os);
      std::printf("  trace:                 %s (%zu spans, %llu dropped)\n",
                  opt.trace_out.c_str(), rec.snapshot().size(),
                  static_cast<unsigned long long>(rec.dropped()));
    }
  }
  if (http_server) {
    if (opt.serve_linger > 0 && !http_server->shutdown_requested()) {
      std::printf("\nserving http://127.0.0.1:%u for up to %.1fs "
                  "(GET /api/v1/shutdown to stop)\n",
                  http_server->port(), opt.serve_linger);
      std::fflush(stdout);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(opt.serve_linger));
      while (!http_server->shutdown_requested() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    http_server->stop();
  }
  if (opt.require_recovered && epochs_unrecovered > 0) {
    std::fprintf(stderr,
                 "--require-recovered: %llu epoch(s) went unrecovered\n",
                 static_cast<unsigned long long>(epochs_unrecovered));
    return 1;
  }
  if (opt.require_recovered && opt.store_requested()) {
    // Post-run store audit: drop the live handle, reopen the directory
    // read-only through the real kernel I/O (the injected faults are over),
    // and scrub once more. Recovery must cope with whatever the chaos run
    // left on disk, and nothing corrupt may remain reachable — a record the
    // quarantine missed here is a byte a later query would serve.
    an.set_curve_sink(nullptr);
    curve_store.reset();
    store::StoreConfig vcfg;
    vcfg.dir = opt.store_dir;
    vcfg.tier_budget = opt.store_tier_budget;
    store::RecoveryInfo vinfo;
    const std::unique_ptr<store::Store> verify =
        store::Store::open(vcfg, &vinfo, /*writable=*/false);
    if (!verify) {
      std::fprintf(stderr, "--require-recovered: store %s did not reopen\n",
                   opt.store_dir.c_str());
      return 1;
    }
    const store::ScrubReport vr = verify->scrub();
    std::printf("\npost-run store verify: %zu segment(s) reopened, "
                "%zu record(s) scrubbed, %zu corrupt\n",
                vinfo.segments_opened, vr.records_verified,
                vr.corrupt_records);
    if (vr.corrupt_records > 0) {
      std::fprintf(stderr,
                   "--require-recovered: %zu corrupt record(s) still "
                   "reachable after recovery\n",
                   vr.corrupt_records);
      return 1;
    }
  }
  return 0;
}
