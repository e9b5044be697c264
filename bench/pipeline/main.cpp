// umon_pipeline_bench — the repository benchmark: a netsim trace,
// generated in set-up, replayed through the real μMon layers (see
// pipeline.hpp) in a closed loop: each tick's packets feed the sketches,
// then the pipeline drains and seals the store before the next tick.
//
//   umon_pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                       [--work-dir DIR] [--out-dir DIR]
//
// Every run replays one fixed trace; --seed varies the uplink's channel
// jitter and the chaos draws. --seconds sets the run length as a number of
// replayed passes, sized so a run takes about that long on the reference
// machine (README.md): the work is fixed, so two commits are timed on
// identical input and identical store growth. The output is one
// `workload metric value unit` line per metric and, last, one JSON object.
// --trace 0 reports the end-to-end metrics; --trace 1 traces every other
// block of passes with telemetry spans and the obs profiler and reports the
// per-layer metrics, with the untraced blocks as the reference for the
// tracing overhead. A failed correctness gate exits 1.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer/metrics.hpp"
#include "common/stats.hpp"
#include "obs/prof.hpp"
#include "pipeline.hpp"
#include "query_client.hpp"
#include "store/query.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"
#include "trace.hpp"

namespace umon::pbench {
namespace {

namespace fs = std::filesystem;
using telemetry::monotonic_ns;

constexpr Nanos kWindow = window_length();

struct WorkloadDef {
  const char* name;
  workload::WorkloadKind kind;
  Nanos duration;  ///< flow arrivals
  Nanos horizon;   ///< simulated time, i.e. one pass
  Nanos tick;      ///< epoch length
  bool sketch_in_setup;
  int shards;
  bool chaos;
  bool live_queries;
  /// Passes per second of --seconds, calibrated on the reference machine.
  double passes_per_second;
  double are_gate;
};

// Why each workload exists is in README.md. Epochs are whole windows so
// that passes, shifted by whole epochs, never share a window.
constexpr WorkloadDef kWorkloads[] = {
    {"hadoop-ingest", workload::WorkloadKind::kHadoop, 20 * kMilli,
     25 * kMilli, 64 * kWindow, false, 2, false, false, 2.8, 0.05},
    {"websearch-collector", workload::WorkloadKind::kWebSearch, 40 * kMilli,
     40 * kMilli, 2560 * kWindow, true, 4, false, false, 6.0, 0.10},
    {"hadoop-query", workload::WorkloadKind::kHadoop, 20 * kMilli,
     25 * kMilli, 64 * kWindow, false, 2, false, true, 2.8, 0.05},
    {"hadoop-chaos", workload::WorkloadKind::kHadoop, 20 * kMilli,
     25 * kMilli, 64 * kWindow, false, 2, true, false, 2.8, 0.05},
};

/// Every run replays the trace of this seed, drawn by the product's Poisson
/// generator (workload::generate). Drawn from a heavy-tailed size CDF, a
/// trace this short changes its packet count by up to a fifth from one seed
/// to the next, and every metric with it, so --seed varies the uplink
/// instead.
constexpr std::uint64_t kTraceSeed = 7;
/// chaos.plan describes this much sim time; the run repeats it.
constexpr Nanos kChaosPeriod = 100 * kMilli;
/// Live query cadence, in sim ticks.
constexpr int kQueryEveryTicks = 4;
/// Heavy-flow drill-downs between two all-flows aggregates.
constexpr int kDrillsPerAggregate = 5;
/// Every query covers the last 5 ms of windows before its end.
constexpr WindowId kQueryWindows = 5 * kMilli / kWindow;
constexpr std::uint32_t kQueryResolution = 8;
/// Probe queries per run in a workload without a live query stream.
constexpr int kProbeQueries = 300;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;
/// Passes per traced or untraced block of a --trace 1 run.
constexpr int kTraceBlock = 2;
/// Share of the traced wall time the bench spans must cover.
constexpr double kCoverageGate = 0.90;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = "build-bench/run";
  std::string out_dir = "build-bench/out";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

// --- small statistics -------------------------------------------------------

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(monotonic_ns() - t0) / 1e9;
}

/// Reset VmHWM so the peak excludes trace generation.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// The hadoop-chaos uplink schedule: chaos.plan's one period of channel
/// faults and shard crashes, repeated back to back until `horizon`, with
/// its draws seeded by `seed`. Empty, with `err` set, on a bad plan.
std::optional<resilience::FaultPlan> chaos_plan(std::uint64_t seed,
                                                Nanos horizon,
                                                std::string& err) {
  const auto period =
      resilience::FaultPlan::parse_file(UMON_PIPELINE_CHAOS_PLAN, &err);
  if (!period) return std::nullopt;
  bool inside = period->stalls.empty() && period->disk.empty();
  for (const auto& f : period->channel) {
    inside = inside && f.from >= 0 && f.to <= kChaosPeriod;
  }
  for (const auto& c : period->crashes) {
    inside = inside && c.at >= 0 && c.restart > c.at &&
             c.restart <= kChaosPeriod;
  }
  if (!inside) {
    err = UMON_PIPELINE_CHAOS_PLAN
        ": only channel faults and restarting shard crashes inside one "
        "100 ms period apply";
    return std::nullopt;
  }
  resilience::FaultPlan plan;
  plan.seed = seed;
  for (Nanos base = 0; base < horizon; base += kChaosPeriod) {
    for (auto f : period->channel) {
      f.from += base;
      f.to += base;
      plan.channel.push_back(f);
    }
    for (auto c : period->crashes) {
      c.at += base;
      c.restart += base;
      plan.crashes.push_back(c);
    }
  }
  return plan;
}

// --- queries ----------------------------------------------------------------

/// Builds the /api/v1/query requests: five heavy-flow drill-downs, then one
/// all-flows aggregate, each over the 5 ms of windows ending at `hi`. A
/// drill-down picks a heavy flow that sent in the range's last tick.
class QueryPlanner {
 public:
  explicit QueryPlanner(const Trace& tr) : tr_(tr) {}

  std::optional<QueryJob> job(WindowId hi, std::uint64_t due) {
    const WindowId lo = hi - kQueryWindows;
    if (lo < 0) return std::nullopt;
    QueryJob j;
    j.due_ns = due;
    j.from = lo;
    j.to = hi;
    j.resolution = kQueryResolution;
    const Nanos last = window_start(hi - 1) % tr_.pass_length();
    const auto& flows =
        tr_.heavy_by_tick[static_cast<std::size_t>(last / tr_.tick)];
    j.aggregate = n_ % (kDrillsPerAggregate + 1) == kDrillsPerAggregate ||
                  flows.empty();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "/api/v1/query?from_us=%.3f&to_us=%.3f&resolution=%u&op=sum",
                  static_cast<double>(window_start(lo) + kWindow / 2) / 1e3,
                  static_cast<double>(window_start(hi - 1) + kWindow / 2) / 1e3,
                  kQueryResolution);
    j.target = buf;
    if (!j.aggregate) {
      const FlowKey& f = tr_.heavy[flows[n_ % flows.size()]];
      std::snprintf(buf, sizeof buf, "&flow=%u:%u:%u:%u:%u", f.src_ip,
                    f.src_port, f.dst_ip, f.dst_port, f.proto);
      j.target += buf;
    }
    ++n_;
    return j;
  }

 private:
  const Trace& tr_;
  std::uint64_t n_ = 0;
};

/// No live stream: `n` queries of the same mix, one after another, against
/// the quiescent store. Like the live stream they ask for the last 5 ms
/// sealed; query i ends i windows earlier, so no two share a cache entry.
void probe_queries(Pipeline& p, QueryPlanner& planner, HttpClient& client,
                   int n, std::vector<QueryOutcome>& out) {
  WindowId first = 0, last = 0;
  if (!p.store().window_extent(first, last)) return;
  for (int i = 0; i < n; ++i) {
    auto job = planner.job(p.durable_window() - i, 0);
    if (!job) continue;
    const WindowId lo = std::max(job->from, first);
    const WindowId hi = std::min(job->to, last + 1);
    job->expected_buckets =
        hi > lo ? static_cast<std::size_t>((hi - lo + kQueryResolution - 1) /
                                           kQueryResolution)
                : 0;
    out.push_back(execute(client, *job));
  }
}

/// Constructs one pipeline in `dir` and appends its construction time.
std::unique_ptr<Pipeline> timed_setup(PipelineConfig cfg, const fs::path& dir,
                                      std::vector<double>& setup_s) {
  cfg.store_dir = dir.string();
  const std::uint64_t t0 = monotonic_ns();
  auto p = std::make_unique<Pipeline>(cfg);
  setup_s.push_back(seconds_since(t0));
  return p;
}

// --- traced-run accounting --------------------------------------------------

/// Self time per bench span name (duration minus nested bench spans) and
/// the replay-thread time the spans cover, in seconds.
struct LayerTimes {
  std::map<std::string, double> self_s;
  double covered_s = 0;
};

LayerTimes layer_times(const std::vector<telemetry::SpanEvent>& events) {
  std::vector<const telemetry::SpanEvent*> ev;
  for (const auto& e : events) {
    if (e.phase == 'X' && std::strcmp(e.category, kSpanCategory) == 0) {
      ev.push_back(&e);
    }
  }
  std::sort(ev.begin(), ev.end(), [](const auto* a, const auto* b) {
    return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
  });
  LayerTimes out;
  struct Open {
    std::uint64_t stop;
    const char* name;
  };
  std::vector<Open> open;
  for (const auto* e : ev) {
    while (!open.empty() && open.back().stop <= e->ts_ns) open.pop_back();
    const double dur = static_cast<double>(e->dur_ns) / 1e9;
    if (open.empty()) {
      out.covered_s += dur;
    } else {
      out.self_s[open.back().name] -= dur;
    }
    out.self_s[e->name] += dur;
    open.push_back(Open{e->ts_ns + e->dur_ns, e->name});
  }
  return out;
}

/// Sums over the traced passes of a --trace 1 run. Each traced block
/// starts a fresh span ring and profiler table (neither can resume), so
/// both are folded in here when the block closes.
struct TracedTotals {
  LayerTimes layers;
  std::map<std::string, obs::ProfStageSnapshot> stages;
  double cycles_per_ns = 1;
  double traced_s = 0, untraced_s = 0;
  double traced_packets = 0, untraced_packets = 0;
  double ticks = 0, host_epochs = 0, payloads = 0, submitted = 0, seals = 0;
  std::uint64_t dropped = 0;

  void open_block(Pipeline& p) {
    telemetry::TraceRecorder::global().enable(kTraceCapacity);
    obs::prof_enable();
    p.set_sample_queue_depth(true);
  }

  void close_block(Pipeline& p, const PipelineCounts& before, double secs,
                   double packets) {
    auto& rec = telemetry::TraceRecorder::global();
    rec.disable();
    p.set_sample_queue_depth(false);
    fold_profile();
    const LayerTimes lt = layer_times(rec.snapshot());
    for (const auto& [name, self] : lt.self_s) layers.self_s[name] += self;
    layers.covered_s += lt.covered_s;
    dropped += rec.dropped();
    traced_s += secs;
    traced_packets += packets;
    const PipelineCounts& c = p.counts();
    ticks += static_cast<double>(c.ticks - before.ticks);
    host_epochs += static_cast<double>(c.host_epochs - before.host_epochs);
    payloads += static_cast<double>(c.payloads - before.payloads);
    submitted += static_cast<double>(c.submitted - before.submitted);
    seals += static_cast<double>(c.store_seals - before.store_seals);
  }

  /// Stop the profiler and add its stage table to the totals.
  void fold_profile() {
    obs::prof_disable();
    for (const auto& s : obs::prof_snapshot()) {
      auto& acc = stages[s.name];
      acc.period = s.period;
      acc.samples += s.samples;
      acc.sampled_cycles += s.sampled_cycles;
    }
    cycles_per_ns = obs::prof_cycles_per_ns();
  }

  [[nodiscard]] double self(const char* name) const {
    const auto it = layers.self_s.find(name);
    return it == layers.self_s.end() ? 0.0 : it->second;
  }

  [[nodiscard]] double ns_per_call(const char* stage) const {
    const auto it = stages.find(stage);
    if (it == stages.end()) return 0;
    return ratio(static_cast<double>(it->second.sampled_cycles),
                 static_cast<double>(it->second.samples) * cycles_per_ns);
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metric(const char* workload, const Metric& m) {
  std::printf("%s %s %.10g %s\n", workload, m.name.c_str(), m.value, m.unit);
}

// --- the run ----------------------------------------------------------------

int run(const Args& a, const WorkloadDef& wd) {
  TraceSpec spec;
  spec.kind = wd.kind;
  spec.duration = wd.duration;
  spec.horizon = wd.horizon;
  spec.tick = wd.tick;
  spec.seed = kTraceSeed;
  Trace tr = make_trace(spec);
  const int passes = std::max(
      1, static_cast<int>(std::lround(a.seconds * wd.passes_per_second)));
  std::optional<resilience::FaultPlan> plan;
  if (wd.chaos) {
    std::string err;
    plan = chaos_plan(a.seed,
                      passes * tr.pass_length() + kMaxSettleTicks * tr.tick,
                      err);
    if (!plan) {
      std::fprintf(stderr, "bad chaos plan: %s\n", err.c_str());
      return 2;
    }
  }
  PipelineConfig pcfg;
  TracedTotals tt;
  std::optional<SketchCost> setup_sketch;
  if (wd.sketch_in_setup) {
    if (a.trace) obs::prof_enable();
    setup_sketch = presketch(tr, pcfg.sketch);
    if (a.trace) tt.fold_profile();
  }
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "warning: VmHWM not reset; peak includes set-up\n");
  }

  const fs::path run_dir =
      fs::path(a.work_dir) /
      (std::string(wd.name) + "-" + std::to_string(::getpid()));
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  struct RemoveDir {
    fs::path p;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } remove_run_dir{run_dir};

  // --- set-up ----------------------------------------------------------------
  pcfg.hosts = tr.hosts;
  pcfg.sketches = !wd.sketch_in_setup;
  pcfg.shards = wd.shards;
  pcfg.seed = a.seed;
  pcfg.chaos = plan ? &*plan : nullptr;
  std::vector<double> setup_s;
  const std::unique_ptr<Pipeline> pipe =
      timed_setup(pcfg, run_dir / "store", setup_s);
  Pipeline& p = *pipe;

  // --- timed replay ----------------------------------------------------------
  // --trace 1 alternates blocks of passes untraced and traced, so the
  // tracing overhead is measured against neighbouring passes of the same
  // run (a pass slows as the stored state grows).
  const auto traced_pass = [&](int pass) {
    return a.trace &&
           (passes < 2 * kTraceBlock || (pass / kTraceBlock) % 2 == 1);
  };
  QueryPlanner planner(tr);
  std::optional<QueryStream> live;
  std::optional<HttpClient> prober;
  if (wd.live_queries) {
    live.emplace(p.port());
  } else {
    prober.emplace(p.port());
  }
  std::vector<QueryOutcome> queries;

  double replay_s = 0;
  Nanos t = 0;
  std::int64_t g = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = traced_pass(pass);
    if (traced) tt.open_block(p);
    const PipelineCounts before = p.counts();
    const std::uint64_t pass_start = monotonic_ns();
    for (int k = 0; k < tr.ticks; ++k, ++g) {
      t = (g + 1) * tr.tick;
      TickInput in;
      const Nanos shift = static_cast<Nanos>(pass) * tr.pass_length();
      if (tr.report_ticks.empty()) {
        in.packets = tr.packet_ticks[static_cast<std::size_t>(k)];
        in.ts_shift = shift;
      } else {
        in.reports = &tr.report_ticks[static_cast<std::size_t>(k)];
        in.w_shift = window_of(shift);
      }
      p.tick(t, in);
      if (live && (g + 1) % kQueryEveryTicks == 0) {
        telemetry::ScopedSpan span("serve.dispatch", kSpanCategory);
        if (auto job = planner.job(p.durable_window(), monotonic_ns())) {
          live->submit(std::move(*job));
        }
      }
    }
    const double pass_s = seconds_since(pass_start);
    replay_s += pass_s;
    if (traced) {
      tt.close_block(p, before, pass_s, static_cast<double>(tr.packets));
    } else {
      tt.untraced_s += pass_s;
      tt.untraced_packets += static_cast<double>(tr.packets);
    }

    // Between passes, with the replay clock stopped: one more timed set-up
    // and this pass's share of the probe queries. Spreading both over the
    // run samples the machine's slow speed swings instead of one instant.
    const std::uint64_t pause = monotonic_ns();
    const fs::path dir = run_dir / ("setup-" + std::to_string(pass));
    timed_setup(pcfg, dir, setup_s).reset();
    fs::remove_all(dir);
    if (prober) {
      if (a.trace) obs::prof_enable();
      probe_queries(p, planner, *prober,
                    (pass + 1) * kProbeQueries / passes -
                        pass * kProbeQueries / passes,
                    queries);
      if (a.trace) tt.fold_profile();
    }
    p.exclude(monotonic_ns() - pause);
  }
  const std::uint64_t finish_start = monotonic_ns();
  p.finish(t, tr.tick);
  const double wall_s = replay_s + seconds_since(finish_start);

  if (live) queries = live->finish();
  p.stop();

  // --- correctness gates -----------------------------------------------------
  const collector::CollectorStats cs = p.collector().stats();
  const resilience::ReliableStats ls = p.link().stats();
  const store::StoreStats ss = p.store().stats();
  const PipelineCounts& c = p.counts();
  analyzer::Analyzer& an = p.analyzer();
  std::vector<std::string> failures;
  auto gate = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  if (!wd.chaos) {
    gate(cs.reports_decoded == c.reports,
         "decoded " + std::to_string(cs.reports_decoded) + " of " +
             std::to_string(c.reports) + " reports");
    gate(cs.reports_lost + cs.reports_shed + cs.reports_malformed +
                 cs.payloads_malformed + cs.reports_crashed ==
             0,
         "lossless run lost, shed, or rejected reports");
    gate(ls.epochs_unrecovered == 0 && p.lost_epochs().empty(),
         "lossless run declared epochs lost");
  } else {
    gate(!p.lost_epochs().empty(), "chaos plan caused no loss");
    std::size_t unflagged = 0;
    for (const std::uint64_t key : p.lost_epochs()) {
      const auto [wf, wt] = p.epoch_windows(static_cast<std::uint32_t>(key));
      for (WindowId w = wf; w < wt; ++w) {
        if (an.window_confidence(w) != analyzer::WindowConfidence::kLost) {
          ++unflagged;
        }
      }
    }
    gate(unflagged == 0, std::to_string(unflagged) + " lost windows unflagged");
  }
  gate(c.seal_failures == 0, "store seal failed");

  // Conservation: the store's whole-range sum, read back through every
  // tier, equals the analyzer's curve volume. Tiering rounds each window of
  // a reconstructed (fractional) curve to whole bytes, so the sums may
  // differ by at most half a byte per stored window.
  {
    double an_sum = 0;
    for (const FlowKey& f : an.curves().flows()) {
      an_sum += an.curves().total_bytes(f);
    }
    double store_sum = 0;
    WindowId first = 0, last = 0;
    if (p.store().window_extent(first, last)) {
      store::QueryEngine qe(p.store());
      store::Query q;
      q.from = first;
      q.to = last + 1;
      q.resolution = static_cast<std::uint32_t>(last + 1 - first);
      const store::QueryResult r = qe.run(q);
      if (!r.series.empty()) store_sum = r.series[0];
    }
    const double rounding =
        0.5 * static_cast<double>(an.curves().window_count());
    gate(an_sum > 0 &&
             std::abs(store_sum - an_sum) <= rounding + 1e-9 * an_sum,
         "store sum " + std::to_string(store_sum) + " != analyzer volume " +
             std::to_string(an_sum));
  }

  std::size_t queries_ok = 0;
  std::size_t bad_buckets = 0;
  std::vector<double> q_all, q_flow, q_agg;
  for (const QueryOutcome& o : queries) {
    q_all.push_back(o.latency_ms);
    (o.aggregate ? q_agg : q_flow).push_back(o.latency_ms);
    if (o.status == 200) ++queries_ok;
    if (o.status == 200 && !o.buckets_ok) ++bad_buckets;
  }
  gate(!queries.empty(), "no query ran");
  gate(bad_buckets == 0, std::to_string(bad_buckets) + " bad bucket counts");

  // Accuracy: the paper's ARE over heavy flows, pass 0 windows, skipping
  // windows the pipeline itself flagged lost.
  double are_sum = 0;
  std::size_t are_n = 0;
  for (const FlowKey& f : tr.heavy) {
    const auto truth = tr.truth.series(f);
    WindowId first = 0, last = 0;
    if (truth.empty() || !an.curves().extent(f, first, last)) continue;
    const WindowId w0 = truth.w0;
    const auto est = an.curves().range(
        f, w0, w0 + static_cast<WindowId>(truth.values.size()));
    std::vector<double> tv, ev;
    for (std::size_t i = 0; i < truth.values.size(); ++i) {
      if (an.window_confidence(w0 + static_cast<WindowId>(i)) ==
          analyzer::WindowConfidence::kLost) {
        continue;
      }
      tv.push_back(truth.values[i]);
      ev.push_back(est[i]);
    }
    are_sum += analyzer::average_relative_error(tv, ev);
    ++are_n;
  }
  const double are = ratio(are_sum, static_cast<double>(are_n));
  gate(are_n > 0 && are <= wd.are_gate,
       "heavy_flow_are " + std::to_string(are) + " above " +
           std::to_string(wd.are_gate));

  // --- metrics ---------------------------------------------------------------
  const double packets =
      static_cast<double>(tr.packets) * static_cast<double>(passes);
  std::uint64_t store_bytes = 0;
  for (const auto& tier : ss.tiers) store_bytes += tier.bytes;
  std::vector<Metric> metrics;   // the JSON result
  std::vector<Metric> extra;     // printed lines only
  if (!a.trace) {
    metrics = {
        {"ingest_pps", packets / wall_s, "pkt/s"},
        {"reports_per_s", static_cast<double>(cs.reports_decoded) / wall_s,
         "1/s"},
        {"freshness_p50_ms", percentile(p.freshness_ms(), 0.50), "ms"},
        {"freshness_p95_ms", percentile(p.freshness_ms(), 0.95), "ms"},
        {"query_p50_ms", percentile(q_all, 0.50), "ms"},
        {"query_p95_ms", percentile(q_all, 0.95), "ms"},
        {"query_ok_frac",
         ratio(static_cast<double>(queries_ok),
               static_cast<double>(queries.size())),
         "ratio"},
        {"report_delivered_frac",
         ratio(static_cast<double>(cs.reports_decoded),
               static_cast<double>(c.reports)),
         "ratio"},
        {"epochs_recovered_frac",
         1.0 - ratio(static_cast<double>(p.lost_epochs().size()),
                     static_cast<double>(c.host_epochs)),
         "ratio"},
        {"uplink_bytes_per_kpkt",
         static_cast<double>(p.forward().bytes_sent()) * 1e3 / packets, "B"},
        {"store_bytes_per_kpkt",
         static_cast<double>(store_bytes) * 1e3 / packets, "B"},
        {"heavy_flow_accuracy", 1.0 - are, "ratio"},
        {"setup_s", percentile(setup_s, 0.50), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double traced_pps = ratio(tt.traced_packets, tt.traced_s);
    const double untraced_pps = ratio(tt.untraced_packets, tt.untraced_s);
    const double coverage = ratio(tt.layers.covered_s, tt.traced_s);
    gate(coverage >= kCoverageGate,
         "bench spans cover " + std::to_string(coverage * 100) +
             "% of the traced wall time");
    gate(tt.dropped == 0, std::to_string(tt.dropped) + " trace spans dropped");
    // websearch-collector sketches in set-up only: its sketch costs are
    // that pass's, timed directly.
    const double update_ns_per_pkt =
        setup_sketch ? ratio(setup_sketch->update_s * 1e9,
                             static_cast<double>(setup_sketch->packets))
                     : ratio(tt.self("sketch.update") * 1e9, tt.traced_packets);
    const double flush_us_per_epoch =
        setup_sketch ? ratio(setup_sketch->flush_s * 1e6,
                             static_cast<double>(setup_sketch->flushes))
                     : ratio(tt.self("sketch.flush") * 1e6, tt.host_epochs);
    const auto cache = p.endpoints().cache_stats();
    metrics = {
        {"sketch.update_ns_per_pkt", update_ns_per_pkt, "ns"},
        {"sketch.flush_us_per_epoch", flush_us_per_epoch, "us"},
        {"sketch.reports_per_epoch",
         ratio(static_cast<double>(c.reports),
               static_cast<double>(c.host_epochs)),
         "count"},
        {"uplink.encode_us_per_epoch",
         ratio(tt.self("uplink.encode") * 1e6, tt.host_epochs), "us"},
        {"uplink.bytes_per_report",
         ratio(static_cast<double>(c.payload_bytes),
               static_cast<double>(c.reports)),
         "B"},
        {"resilience.send_us_per_frame",
         ratio(tt.self("resilience.send") * 1e6, tt.payloads), "us"},
        {"resilience.receive_us_per_tick",
         ratio(tt.self("resilience.receive") * 1e6, tt.ticks), "us"},
        {"resilience.retx_per_frame",
         ratio(static_cast<double>(ls.frames_retransmitted),
               static_cast<double>(ls.frames_sent)),
         "ratio"},
        {"resilience.dup_frames", static_cast<double>(ls.frames_duplicate),
         "count"},
        {"collector.submit_us_per_payload",
         ratio(tt.self("collector.submit") * 1e6, tt.submitted), "us"},
        {"collector.seal_us_per_epoch",
         ratio(tt.self("collector.seal") * 1e6, tt.host_epochs), "us"},
        {"collector.drain_ms_per_tick",
         ratio(tt.self("collector.drain") * 1e3, tt.ticks), "ms"},
        {"collector.queue_depth_max", static_cast<double>(c.queue_depth_max),
         "count"},
        {"analyzer.heavy_flow_are", are, "ratio"},
        {"store.seal_ms_per_epoch",
         ratio(tt.self("store.seal") * 1e3, tt.seals), "ms"},
        {"store.maintain_ms_per_tick",
         ratio(tt.self("store.maintain") * 1e3, tt.seals), "ms"},
        {"store.append_bytes_per_kpkt",
         static_cast<double>(ss.append_bytes) * 1e3 / packets, "B"},
        {"store.compaction_ratio",
         ratio(static_cast<double>(ss.compaction_output_bytes),
               static_cast<double>(ss.compaction_input_bytes)),
         "ratio"},
        {"store.page_cache_hit_ratio", ss.cache.hit_ratio(), "ratio"},
        {"serve.query_flow_ms_p50", percentile(q_flow, 0.50), "ms"},
        {"serve.query_agg_ms_p50", percentile(q_agg, 0.50), "ms"},
        {"serve.cache_hit_ratio",
         ratio(static_cast<double>(cache.hits),
               static_cast<double>(cache.hits + cache.misses)),
         "ratio"},
    };
    // The obs profiler's stage table: the inner stages of the spans above.
    for (std::size_t i = 0; i < obs::kProfStageCount; ++i) {
      const char* name = obs::to_string(static_cast<obs::ProfStage>(i));
      metrics.push_back({std::string("prof.") + name + "_ns_per_call",
                         tt.ns_per_call(name), "ns"});
    }
    metrics.push_back(
        {"trace_overhead_pct",
         untraced_pps > 0 ? 100.0 * (1.0 - traced_pps / untraced_pps) : 0.0,
         "%"});

    // Share of the traced wall time per layer (self time of its spans).
    std::map<std::string, double> layer_s;
    for (const auto& [name, self] : tt.layers.self_s) {
      layer_s[name.substr(0, name.find('.'))] += self;
    }
    for (const char* layer : {"sketch", "replay", "uplink", "resilience",
                              "collector", "analyzer", "store", "serve",
                              "bench"}) {
      extra.push_back({std::string("share.") + layer + "_pct",
                       100.0 * ratio(layer_s[layer], tt.traced_s), "%"});
    }
    extra.push_back({"trace.coverage_pct", 100.0 * coverage, "%"});
    extra.push_back(
        {"trace.dropped", static_cast<double>(tt.dropped), "count"});

    // The span ring still holds the last traced block.
    fs::create_directories(a.out_dir);
    const fs::path out = fs::path(a.out_dir) / (std::string(wd.name) + "-seed" +
                                                std::to_string(a.seed) +
                                                ".trace.json");
    std::ofstream os(out);
    telemetry::TraceRecorder::global().write_chrome_json(os);
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "%s: gate failed: %s\n", wd.name, f.c_str());
  }
  std::printf(
      "# umon-pipeline workload=%s seed=%llu trace=%d passes=%d "
      "packets_per_pass=%llu flows=%llu heavy_flows=%zu queries=%zu\n",
      wd.name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0, passes,
      static_cast<unsigned long long>(tr.packets),
      static_cast<unsigned long long>(tr.flows), tr.heavy.size(),
      queries.size());
  for (const Metric& m : metrics) print_metric(wd.name, m);
  for (const Metric& m : extra) print_metric(wd.name, m);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(c.host_epochs + queries.size()),
              static_cast<unsigned long long>(failures.size() +
                                              (queries.size() - queries_ok)));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace umon::pbench

int main(int argc, char** argv) {
  using namespace umon::pbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: umon_pipeline_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR] "
                 "[--out-dir DIR]\n");
    return 2;
  }
  for (const WorkloadDef& wd : kWorkloads) {
    if (a.workload != wd.name) continue;
    try {
      return run(a, wd);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", wd.name, e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
  return 2;
}
