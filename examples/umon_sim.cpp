// umon_sim: command-line driver for full uMon experiments.
//
// Runs a workload on the fat-tree simulator (DCQCN, no PFC) with uFlow
// (WaveSketch d=3, w=256, K=64 at every host) and uEvent (CE match + PSN
// sampling + mirror at every switch) attached, then prints the analyzer's
// view: accuracy, bandwidth, events.
//
// `umon_sim --help` prints the flags. --load must be in (0, 1], --ms above
// 0, --sample-bits in 0..31 (mirror 1 in 2^N CE-marked packets) and
// --report-loss in [0, 1]; an out-of-range value exits 2 before anything
// runs.
//
// This file owns the packet source (the fat tree and the workload) and
// advances it one reporting period at a time (--health-interval
// microseconds, default 500, min 100); umon::pipeline (src/pipeline) flushes
// one epoch per host per period through the uplink, the simulated upload
// channel (--report-loss drops payloads in transit), the ReliableLink
// (passthrough unless --uplink-reliable), and the sharded collector
// (--collector-shards, default 2) into the analyzer. An epoch that loses
// reports to sequence gaps has its analyzer windows flagged lost, so
// missing data never reads back as idle.
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
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

#include "analyzer/groundtruth.hpp"
#include "analyzer/metrics.hpp"
#include "netsim/network.hpp"
#include "obs/prof.hpp"
#include "pipeline/driver.hpp"
#include "serve/endpoints.hpp"
#include "serve/server.hpp"
#include "store/io.hpp"
#include "uevent/detector.hpp"
#include "workload/generator.hpp"

namespace {

using namespace umon;

struct Options {
  workload::WorkloadKind kind = workload::WorkloadKind::kHadoop;
  double load = 0.15;
  Nanos duration = 20 * kMilli;
  int sample_bits = 6;
  /// The seed, shard, loss, tick, uplink, store, health and lineage flags.
  pipeline::PipelineConfig pipe;
  std::string metrics_out;   ///< Prometheus text snapshot path ("" = off)
  std::string trace_out;     ///< Chrome trace JSON path ("" = off)
  std::string log_level;     ///< "" = leave logger at its default (warn)
  std::string health_out;    ///< health JSONL path ("" = health off)
  std::string fault_plan;    ///< chaos schedule path ("" = no injection)
  bool require_recovered = false;  ///< exit 1 on any unrecovered epoch
  std::string disk_fault_plan;  ///< store I/O chaos schedule ("" = off)
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
  [[nodiscard]] bool store_requested() const { return !pipe.store.dir.empty(); }
  [[nodiscard]] bool scrub_requested() const {
    return pipe.scrub_interval > 0 || !disk_fault_plan.empty();
  }
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
      if (!(opt.load > 0 && opt.load <= 1)) {
        std::fprintf(stderr, "--load must be in (0, 1]\n");
        return false;
      }
    } else if (arg == "--ms") {
      const double ms = std::atof(next("--ms"));
      // Checked before the conversion: a NaN or negative duration would
      // otherwise run an empty simulation.
      if (!(ms > 0)) {
        std::fprintf(stderr, "--ms must be above 0\n");
        return false;
      }
      opt.duration = static_cast<Nanos>(ms * 1e6);
    } else if (arg == "--sample-bits") {
      opt.sample_bits = std::atoi(next("--sample-bits"));
      if (opt.sample_bits < 0 || opt.sample_bits > 31) {
        std::fprintf(stderr, "--sample-bits must be 0..31\n");
        return false;
      }
    } else if (arg == "--seed") {
      opt.pipe.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--collector-shards") {
      opt.pipe.collector_shards = std::atoi(next("--collector-shards"));
      if (opt.pipe.collector_shards < 1) {
        std::fprintf(stderr, "--collector-shards must be at least 1\n");
        return false;
      }
    } else if (arg == "--report-loss") {
      opt.pipe.report_loss = std::atof(next("--report-loss"));
      if (!(opt.pipe.report_loss >= 0 && opt.pipe.report_loss <= 1)) {
        std::fprintf(stderr, "--report-loss must be in [0, 1]\n");
        return false;
      }
    } else if (arg == "--metrics-out") {
      opt.metrics_out = next("--metrics-out");
    } else if (arg == "--trace-out") {
      opt.trace_out = next("--trace-out");
    } else if (arg == "--log-level") {
      opt.log_level = next("--log-level");
    } else if (arg == "--health-out") {
      opt.health_out = next("--health-out");
      opt.pipe.health = true;
    } else if (arg == "--health-interval") {
      opt.pipe.tick =
          static_cast<Nanos>(std::atof(next("--health-interval"))) * kMicro;
      // The epoch pipeline seals one tick late; the tick must cover the
      // upload channel's base delay + jitter (50 + 20 us) so every payload
      // of epoch N has landed before the N+1 tick seals it.
      if (opt.pipe.tick < 100 * kMicro) {
        opt.pipe.tick = 100 * kMicro;
      }
    } else if (arg == "--health-alarms") {
      opt.pipe.health_alarms = next("--health-alarms");
    } else if (arg == "--fault-plan") {
      opt.fault_plan = next("--fault-plan");
    } else if (arg == "--uplink-reliable") {
      opt.pipe.uplink_reliable = true;
    } else if (arg == "--uplink-retx-buffer") {
      opt.pipe.uplink_retx_buffer =
          static_cast<std::size_t>(std::atoll(next("--uplink-retx-buffer")));
    } else if (arg == "--gap-fill") {
      opt.pipe.gap_fill = true;
    } else if (arg == "--require-recovered") {
      opt.require_recovered = true;
    } else if (arg == "--store-dir") {
      opt.pipe.store.dir = next("--store-dir");
    } else if (arg == "--store-tier-budget") {
      opt.pipe.store.tier_budget =
          static_cast<std::size_t>(std::atoll(next("--store-tier-budget")));
      if (opt.pipe.store.tier_budget < 4) opt.pipe.store.tier_budget = 4;
    } else if (arg == "--disk-fault-plan") {
      opt.disk_fault_plan = next("--disk-fault-plan");
    } else if (arg == "--scrub-interval") {
      opt.pipe.scrub_interval = std::atoi(next("--scrub-interval"));
      if (opt.pipe.scrub_interval < 0) opt.pipe.scrub_interval = 0;
    } else if (arg == "--scrub-audit") {
      opt.scrub_audit = next("--scrub-audit");
    } else if (arg == "--prof-out") {
      opt.prof_out = next("--prof-out");
    } else if (arg == "--lineage-out") {
      opt.lineage_out = next("--lineage-out");
      opt.pipe.lineage = true;
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
        "                [--sample-bits N] [--seed N]\n"
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
        "--load F is in (0, 1]; --ms N is above 0; --sample-bits N is 0..31\n"
        "(mirror 1 in 2^N CE-marked packets); --report-loss F is in [0, 1].\n"
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
  cfg.seed = opt.pipe.seed;
  auto net = netsim::Network::fat_tree(cfg, 4);

  opt.pipe.hosts = net->host_count();
  // The tick minimum (100 us) covers the channel's 50 us delay + jitter.
  opt.pipe.channel_jitter = 20 * kMicro;
  // Chaos schedule, parsed before anything allocates so a bad plan exits
  // fast with a line number.
  if (!opt.fault_plan.empty()) {
    std::string err;
    auto plan = resilience::FaultPlan::parse_file(opt.fault_plan, &err);
    if (!plan) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", err.c_str());
      return 2;
    }
    opt.pipe.fault_plan = std::move(*plan);
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
  opt.pipe.store.io = disk_io.get();

  // Scrub audit: every pass the pipeline runs is accumulated for the report
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
  opt.pipe.on_scrub = [&](const store::ScrubReport& r) {
    ++scrub_passes;
    scrub_total.bytes_scanned += r.bytes_scanned;
    scrub_total.records_verified += r.records_verified;
    scrub_total.corrupt_records += r.corrupt_records;
    scrub_total.chunks_quarantined += r.chunks_quarantined;
    scrub_total.chunks_repaired += r.chunks_repaired;
    scrub_total.windows_lost += r.windows_lost;
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

  std::string pipeline_err;
  std::unique_ptr<pipeline::Pipeline> pipe =
      pipeline::Pipeline::create(opt.pipe, &pipeline_err);
  if (!pipe) {
    std::fprintf(stderr, "umon_sim: %s\n", pipeline_err.c_str());
    return 2;
  }
  analyzer::Analyzer& an = pipe->analyzer();
  const collector::Collector& col = pipe->collector();
  store::Store* const curve_store = pipe->store();
  health::HealthMonitor* const mon = pipe->monitor();
  obs::LineageTracker* const lineage = pipe->lineage();

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
    svc.registries.push_back(&pipe->link().telemetry_registry());
    if (curve_store) {
      svc.registries.push_back(&curve_store->telemetry_registry());
      svc.store = curve_store;
      svc.store_dir = opt.pipe.store.dir;
      svc.store_rinfo = pipe->store_recovery();
    }
    svc.lineage = lineage;
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
  net->set_host_tx_hook([&, p = pipe.get()](int host, const PacketRecord& r) {
    ++packets;
    truth.add(r.flow, r.timestamp, r.size);
    p->on_packet(host, r);
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
  wp.seed = opt.pipe.seed;
  const workload::Workload w = workload::generate(opt.kind, wp);
  workload::install(w, *net);

  const Nanos horizon = opt.duration + 5 * kMilli;


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

  // The network runs one reporting period at a time; the pipeline carries
  // each period's epochs from the host sketches to the analyzer.
  const auto run_network = [&](Nanos now) {
    net->run_until(now);
    net->settle_telemetry();
  };
  const Nanos t = pipe->run(horizon, run_network, serve_publish);
  net->finish();
  pipe->finish(t, scorer.mirrored());
  const collector::CollectorStats cstats = col.stats();
  serve_publish(horizon + opt.pipe.tick);

  const sketch::WaveSketchParams sp;
  std::printf("uMon simulation report\n");
  std::printf("  workload:        %s, %.0f%% load, %.1f ms, DCQCN\n",
              workload::to_string(opt.kind).c_str(), opt.load * 100,
              static_cast<double>(opt.duration) / 1e6);
  std::printf("  flows / packets: %zu / %llu\n", w.flows.size(),
              static_cast<unsigned long long>(packets));
  std::printf("  drops:           %llu\n",
              static_cast<unsigned long long>(net->total_drops()));

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
  std::printf("\nuFlow (WaveSketch d=%d w=%u K=%zu)\n", sp.depth, sp.width,
              sp.k);
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
              opt.pipe.collector_shards, opt.pipe.report_loss * 100);
  std::printf("  payloads:        %llu submitted, %llu dropped in channel, "
              "%llu malformed\n",
              static_cast<unsigned long long>(cstats.payloads_submitted),
              static_cast<unsigned long long>(
                  pipe->channel().payloads_dropped()),
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
  if (opt.pipe.uplink_reliable) {
    const resilience::ReliableStats rs = pipe->link().stats();
    epochs_unrecovered = rs.epochs_unrecovered;
    std::printf("\nreliable uplink (retx buffer %zu frames)\n",
                pipe->link().config().retx_buffer_frames);
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
  if (const resilience::FaultInjector* injector = pipe->injector()) {
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
  if (curve_store && opt.scrub_requested()) pipe->scrub();

  if (curve_store) {
    const store::StoreStats ss = curve_store->stats();
    const store::RecoveryInfo& store_recovery = pipe->store_recovery();
    std::printf("\ndurable store (%s, tier budget K=%zu)\n",
                opt.pipe.store.dir.c_str(), opt.pipe.store.tier_budget);
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
                opt.pipe.store.dir.c_str());
  }

  if (mon) {
    std::printf("\nhealth (sampled every %.0f us)\n",
                static_cast<double>(opt.pipe.tick) / 1e3);
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
    // Post-run store audit: drop the pipeline and its live store handle,
    // reopen the directory read-only through the real kernel I/O (the
    // injected faults are over), and scrub once more. Recovery must cope
    // with whatever the chaos run left on disk, and nothing corrupt may
    // remain reachable — a record the quarantine missed here is a byte a
    // later query would serve.
    pipe.reset();
    store::StoreConfig vcfg;
    vcfg.dir = opt.pipe.store.dir;
    vcfg.tier_budget = opt.pipe.store.tier_budget;
    store::RecoveryInfo vinfo;
    const std::unique_ptr<store::Store> verify =
        store::Store::open(vcfg, &vinfo, /*writable=*/false);
    if (!verify) {
      std::fprintf(stderr, "--require-recovered: store %s did not reopen\n",
                   opt.pipe.store.dir.c_str());
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
