// bench_overhead: every CI overhead gate of the monitoring stack.
//
//   bench_overhead
//
// Exit 0 when every gate holds, 1 when any gate fails, 2 when the lossless
// reliable leg retransmits or loses an epoch (the legs are then not
// comparable, and the protocol is broken).
//
// Disabled-path probes. Instrumented code must cost one relaxed atomic add
// (counters) or one relaxed load + branch (timers, spans, logs, profiler
// scopes) when its feature is off. Every disabled probe is gated at 5 ns/op;
// the counter is gated at 5 ns over a raw std::atomic fetch_add (same
// instruction, no registry in the path), because the cost of a locked add
// varies several-fold across machines. Repetitions are interleaved
// round-robin across every probe, so slow frequency/thermal drift lands on
// all probes alike instead of on whichever ran last; each probe scores the
// median of per-round medians over chunks.
//
// Pipeline legs. umon_sim's reporting loop, umon::pipeline — per-host
// WaveSketchFull and HostUplink, the ReliableLink over the upload channel
// (plus the ack channel on the reliable leg), a 2-shard collector into the
// analyzer, settle_telemetry() every tick — on Hadoop at 15% load, seed 7,
// 10 ms of sim time and a 500 us tick. The wire is lossless and
// jitter-free, so the reliable leg never retransmits and its delta is the
// protocol's fixed per-frame cost. The bare leg runs the link
// in passthrough mode with no health monitor and no profiler; each feature
// leg switches on exactly one of health monitoring (budget 2%), the cycle
// profiler (2%) or the reliable uplink (10%). Each of 11 rounds runs every
// leg once, in an order that rotates by round, and a feature's overhead is
// its leg's time over the same round's bare leg; the gate reads the median
// of the 11 ratios.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/support/paired.hpp"
#include "netsim/network.hpp"
#include "obs/prof.hpp"
#include "pipeline/driver.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"
#include "workload/generator.hpp"

namespace {

using namespace umon;

// --- disabled-path probes --------------------------------------------------

constexpr double kMaxDisabledNs = 5;
constexpr std::uint64_t kWarmup = 50'000;
constexpr std::uint64_t kChunkIters = 200'000;
constexpr int kChunks = 5;       ///< chunks per round, scored by their median
constexpr int kProbeRounds = 5;  ///< interleaved rounds, scored by their median

/// One timed chunk of kChunkIters calls.
template <typename Op>
double chunk_ns(Op&& op) {
  const std::uint64_t t0 = telemetry::monotonic_ns();
  for (std::uint64_t i = 0; i < kChunkIters; ++i) op(i);
  const std::uint64_t t1 = telemetry::monotonic_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(kChunkIters);
}

/// One round: a short warmup then the median over kChunks timed chunks.
template <typename Op>
double round_median(Op&& op) {
  for (std::uint64_t i = 0; i < kWarmup; ++i) op(i);
  std::vector<double> s;
  for (int c = 0; c < kChunks; ++c) s.push_back(chunk_ns(op));
  return bench::quartiles(std::move(s)).median;
}

/// The disabled profiler probe. A named function of its own: a profiled
/// scope makes its enclosing function a hot stage for umon-sca's allocation
/// check, and the probe loop around it allocates sample vectors.
void prof_scope_op(std::uint64_t) { UMON_PROF_SCOPE(kCmUpdate); }

/// Prints the probe table; returns false when a disabled path is over budget.
bool disabled_probes_ok() {
  auto& reg = telemetry::MetricRegistry::global();
  telemetry::Counter* counter =
      reg.counter("umon_bench_ops_total", {}, "bench counter");
  telemetry::Histogram* hist = reg.histogram(
      "umon_bench_lat_us", telemetry::Histogram::latency_us_bounds(), {},
      "bench histogram");
  telemetry::Logger::global().set_level(telemetry::LogLevel::kWarn);
  telemetry::set_detail_enabled(false);
  telemetry::TraceRecorder::global().disable();
  obs::prof_disable();
  std::atomic<std::uint64_t> raw{0};

  // One sample vector per probe; round r of every probe runs before round
  // r+1 of any probe.
  std::vector<double> s_raw, s_counter, s_timer_off, s_span_off, s_log,
      s_prof_off, s_hist, s_timer_on, s_span_on;
  for (int r = 0; r < kProbeRounds; ++r) {
    s_raw.push_back(round_median([&raw](std::uint64_t) {
      raw.fetch_add(1, std::memory_order_relaxed);
    }));
    s_counter.push_back(round_median([&](std::uint64_t) { counter->inc(); }));
    s_timer_off.push_back(
        round_median([&](std::uint64_t) { telemetry::ScopedTimer t(hist); }));
    s_span_off.push_back(
        round_median([](std::uint64_t) { UMON_TRACE_SPAN("bench/span"); }));
    s_log.push_back(round_median([](std::uint64_t i) {
      UMON_LOG(kDebug, "bench", "never", {"i", std::to_string(i)});
    }));
    s_prof_off.push_back(round_median(prof_scope_op));
    s_hist.push_back(round_median(
        [&](std::uint64_t i) { hist->observe(static_cast<double>(i % 512)); }));
    telemetry::set_detail_enabled(true);
    s_timer_on.push_back(
        round_median([&](std::uint64_t) { telemetry::ScopedTimer t(hist); }));
    telemetry::TraceRecorder::global().enable(1 << 12);
    s_span_on.push_back(
        round_median([](std::uint64_t) { UMON_TRACE_SPAN("bench/span"); }));
    telemetry::TraceRecorder::global().disable();
    telemetry::set_detail_enabled(false);
  }

  const double baseline_ns = bench::quartiles(s_raw).median;
  const double counter_ns = bench::quartiles(s_counter).median;
  struct Row {
    const char* name;
    const std::vector<double>& samples;
    bool gated;  ///< counts against kMaxDisabledNs
  };
  const Row rows[] = {
      {"raw relaxed fetch_add", s_raw, false},
      {"counter_inc (always on)", s_counter, false},
      {"scoped_timer disabled", s_timer_off, true},
      {"trace_span disabled", s_span_off, true},
      {"log below level", s_log, true},
      {"prof_scope disabled", s_prof_off, true},
      {"histogram_observe enabled", s_hist, false},
      {"scoped_timer enabled", s_timer_on, false},
      {"trace_span enabled", s_span_on, false},
  };

  std::printf("disabled-path probes (ns/op, median of %d interleaved rounds "
              "x %d chunks x %llu iters)\n",
              kProbeRounds, kChunks,
              static_cast<unsigned long long>(kChunkIters));
  bool ok = true;
  for (const Row& r : rows) {
    const double ns = bench::quartiles(r.samples).median;
    const bool over = r.gated && ns > kMaxDisabledNs;
    ok = ok && !over;
    std::printf("  %-28s %7.2f%s\n", r.name, ns,
                over ? "  EXCEEDS BUDGET" : "");
  }
  const double counter_extra = counter_ns - baseline_ns;
  const bool counter_over = counter_extra > kMaxDisabledNs;
  ok = ok && !counter_over;
  std::printf("  counter_inc over raw add:    %7.2f (budget %.2f) -> %s\n",
              counter_extra, kMaxDisabledNs, counter_over ? "FAIL" : "OK");
  std::printf("disabled-path budget: %.2f ns/op -> %s\n\n", kMaxDisabledNs,
              ok ? "OK" : "FAIL");
  return ok;
}

// --- pipeline legs ---------------------------------------------------------

enum class Leg { kBare, kHealth, kProf, kReliable };
constexpr int kLegCount = 4;

struct Feature {
  Leg leg;
  const char* name;
  double budget_pct;
};
constexpr Feature kFeatures[] = {
    {Leg::kHealth, "health monitoring", 2},
    {Leg::kProf, "cycle profiler", 2},
    {Leg::kReliable, "reliable uplink", 10},
};

constexpr int kRounds = 11;
constexpr Nanos kDuration = 10 * kMilli;
constexpr Nanos kTick = 500 * kMicro;

/// One pipeline run; returns wall nanoseconds of the tick loop.
double run_leg(Leg leg, Nanos duration) {
  netsim::NetworkConfig cfg;
  cfg.queue_sample_interval = 0;
  cfg.seed = 7;
  auto net = netsim::Network::fat_tree(cfg, 4);

  pipeline::PipelineConfig pcfg;
  pcfg.hosts = net->host_count();
  pcfg.tick = kTick;
  pcfg.uplink_reliable = leg == Leg::kReliable;
  pcfg.health = leg == Leg::kHealth;
  workload::WorkloadParams wp;
  wp.hosts = net->host_count();
  wp.load = 0.15;
  wp.duration = duration;
  wp.seed = 7;
  workload::Workload w =
      workload::generate(workload::WorkloadKind::kHadoop, wp);
  workload::install(w, *net);
  const Nanos horizon = duration + 5 * kMilli;

  // The profiler's ~2 ms calibration spin is a one-time startup cost, not a
  // per-run tax, so it stays outside the timed region.
  if (leg == Leg::kProf) obs::prof_enable();
  // No store and the default alarm rules: nothing here can fail to open.
  const std::unique_ptr<pipeline::Pipeline> p =
      pipeline::Pipeline::create(pcfg, nullptr);
  net->set_host_tx_hook([pl = p.get()](int host, const PacketRecord& r) {
    pl->on_packet(host, r);
  });

  const std::uint64_t t0 = telemetry::monotonic_ns();
  const Nanos t = p->run(horizon, [&](Nanos now) {
    net->run_until(now);
    net->settle_telemetry();
  });
  net->finish();
  p->finish(t);
  const double elapsed = static_cast<double>(telemetry::monotonic_ns() - t0);
  if (leg == Leg::kProf) obs::prof_disable();

  const auto st = p->link().stats();
  if (st.epochs_unrecovered != 0 || st.frames_retransmitted != 0) {
    std::fprintf(stderr,
                 "lossless reliable run lost data: %llu unrecovered, "
                 "%llu retransmits\n",
                 static_cast<unsigned long long>(st.epochs_unrecovered),
                 static_cast<unsigned long long>(st.frames_retransmitted));
    std::exit(2);
  }
  return elapsed;
}

/// Runs the paired rounds and prints one row per feature; returns false
/// when a feature's median overhead is over its budget.
bool pipeline_gates_ok() {
  // Warm every leg once (page cache, allocator, thread pools).
  for (int i = 0; i < kLegCount; ++i) {
    (void)run_leg(static_cast<Leg>(i), 2 * kMilli);
  }

  std::vector<double> ns[kLegCount];
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kLegCount; ++i) {
      const int leg = (i + r) % kLegCount;
      ns[leg].push_back(run_leg(static_cast<Leg>(leg), kDuration));
    }
  }

  const std::vector<double>& bare = ns[static_cast<int>(Leg::kBare)];
  const bench::Quartiles bq = bench::quartiles(bare);
  std::printf("pipeline overhead (hadoop 15%% load, %.0f ms sim, %d paired "
              "rounds, median [q1, q3])\n",
              static_cast<double>(kDuration) / 1e6, kRounds);
  std::printf("  %-20s %8.2f ms [%.2f, %.2f]\n", "bare pipeline",
              bq.median / 1e6, bq.q1 / 1e6, bq.q3 / 1e6);
  bool ok = true;
  for (const Feature& f : kFeatures) {
    const bench::Quartiles q = bench::quartiles(
        bench::paired_overhead_pct(ns[static_cast<int>(f.leg)], bare));
    const bool over = q.median > f.budget_pct;
    ok = ok && !over;
    std::printf("  %-20s %+8.2f %% [%+.2f, %+.2f]  budget %.2f %% -> %s\n",
                f.name, q.median, q.q1, q.q3, f.budget_pct,
                over ? "FAIL" : "OK");
  }
  return ok;
}

}  // namespace

int main() {
  const bool probes_ok = disabled_probes_ok();
  const bool pipeline_ok = pipeline_gates_ok();
  return probes_ok && pipeline_ok ? 0 : 1;
}
