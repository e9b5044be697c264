// bench_store_io: durable-store IO performance and tiering fidelity.
//
//   bench_store_io [--flows N] [--epochs N] [--dir PATH] [--out PATH]
//                  [--min-append-mbs X] [--max-nmse X]
//
// Three phases over one seeded synthetic run:
//
//   append   write-through append + per-epoch fsync seal of every curve
//            fragment (the umon_sim --store-dir hot path) → payload MB/s
//   query    reopen the directory read-only with a cold page cache and run
//            a store-wide grouped query → cold latency; replay it once
//            more for the warm-page-cache latency
//   scrub    one full CRC re-verification of every sealed record against
//            the raw disk bytes (the background scrubber's whole-store
//            pass) → latency and raw scan MB/s
//   tiering  age every segment through tier 1 and tier 2 compaction →
//            compaction wall time and input MB/s, output/input byte ratio,
//            and mean reconstruction NMSE against the in-RAM reference
//            curves
//
// Results are persisted as BENCH_store.json (bench/support/snapshot.hpp) so
// the perf trajectory is checked in per PR. With --min-append-mbs or
// --max-nmse the process exits 1 when the measurement misses the budget —
// the CI gates.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "bench/support/snapshot.hpp"
#include "store/query.hpp"
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

/// Deterministic synthetic epoch stream: bursty sparse windows per flow.
void feed(analyzer::FlowCurveStore& fcs, store::Store& st, int epochs,
          int flows) {
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
  }
}

}  // namespace

int main(int argc, char** argv) {
  int flows = 64;
  int epochs = 32;
  std::string dir = "bench_store_io_dir";
  std::string out = "BENCH_store.json";
  double min_append_mbs = 0;
  double max_nmse = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { std::fprintf(stderr, "missing value\n"); std::exit(2); }
      return argv[++i];
    };
    if (arg == "--flows") flows = std::atoi(next());
    else if (arg == "--epochs") epochs = std::atoi(next());
    else if (arg == "--dir") dir = next();
    else if (arg == "--out") out = next();
    else if (arg == "--min-append-mbs") min_append_mbs = std::atof(next());
    else if (arg == "--max-nmse") max_nmse = std::atof(next());
    else { std::fprintf(stderr, "bad argument: %s\n", arg.c_str()); return 2; }
  }

  store::StoreConfig cfg;
  cfg.dir = dir;
  cfg.segment_epochs = 4;
  cfg.tier1_age_epochs = 0;  // write phase stays pure tier-0
  // A fresh directory each run: stale segments would skew every phase.
  {
    const std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "cannot clear %s\n", dir.c_str());
      return 1;
    }
  }

  // --- phase 1: append ------------------------------------------------------
  analyzer::FlowCurveStore fcs;
  store::StoreStats write_stats;
  double append_us = 0;
  {
    auto st = store::Store::open(cfg);
    if (!st) { std::fprintf(stderr, "cannot open %s\n", dir.c_str()); return 1; }
    fcs.set_sink(st.get());
    const double t0 = now_us();
    feed(fcs, *st, epochs, flows);
    append_us = now_us() - t0;
    fcs.set_sink(nullptr);
    write_stats = st->stats();
  }
  const double append_mb =
      static_cast<double>(write_stats.append_bytes) / 1e6;
  const double append_mbs = append_mb / (append_us / 1e6);

  // --- phase 2: query -------------------------------------------------------
  const WindowId full_to = static_cast<WindowId>(epochs) * 64;
  double cold_us = 0, warm_us = 0;
  std::size_t series_len = 0;
  {
    auto st = store::Store::open(cfg, nullptr, /*writable=*/false);
    if (!st) { std::fprintf(stderr, "reopen failed\n"); return 1; }
    store::QueryEngine engine(*st);
    store::Query q;
    q.from = 0;
    q.to = full_to;
    q.resolution = 8;
    q.op = store::GroupOp::kSum;

    double t0 = now_us();
    auto r = engine.run(q);
    cold_us = now_us() - t0;
    series_len = r.series.size();

    t0 = now_us();
    r = engine.run(q);
    warm_us = now_us() - t0;
  }

  // --- phase 2.5: scrub -----------------------------------------------------
  double scrub_us = 0, scrub_mbs = 0;
  std::size_t scrub_records = 0, scrub_corrupt = 0;
  {
    auto st = store::Store::open(cfg, nullptr, /*writable=*/false);
    if (!st) { std::fprintf(stderr, "scrub reopen failed\n"); return 1; }
    const double t0 = now_us();
    const store::ScrubReport sr = st->scrub();
    scrub_us = now_us() - t0;
    scrub_records = sr.records_verified;
    scrub_corrupt = sr.corrupt_records;
    scrub_mbs = scrub_us > 0 ? (static_cast<double>(sr.bytes_scanned) / 1e6) /
                                   (scrub_us / 1e6)
                             : 0.0;
    if (scrub_corrupt != 0) {
      std::fprintf(stderr, "scrub found corruption on a clean store\n");
      return 1;
    }
  }

  // --- phase 3: tiering -----------------------------------------------------
  store::StoreStats tier_stats;
  double tier_us = 0;
  double hop1_ratio = 0, hop2_ratio = 0;
  double nmse_sum = 0;
  int nmse_flows = 0;
  {
    store::StoreConfig tcfg = cfg;
    tcfg.tier1_age_epochs = 1;
    tcfg.tier2_age_epochs = 2;
    auto st = store::Store::open(tcfg);
    if (!st) { std::fprintf(stderr, "tier reopen failed\n"); return 1; }
    double t0 = now_us();
    st->maintain();  // hop 0 -> 1
    tier_us = now_us() - t0;
    const store::StoreStats hop1 = st->stats();
    t0 = now_us();
    st->maintain();  // hop 1 -> 2
    tier_us += now_us() - t0;
    tier_stats = st->stats();
    hop1_ratio = hop1.compaction_input_bytes > 0
                     ? static_cast<double>(hop1.compaction_output_bytes) /
                           static_cast<double>(hop1.compaction_input_bytes)
                     : 0.0;
    const std::uint64_t in2 =
        tier_stats.compaction_input_bytes - hop1.compaction_input_bytes;
    const std::uint64_t out2 =
        tier_stats.compaction_output_bytes - hop1.compaction_output_bytes;
    hop2_ratio = in2 > 0 ? static_cast<double>(out2) /
                               static_cast<double>(in2)
                         : 0.0;

    store::QueryEngine engine(*st);
    for (int f = 0; f < flows; ++f) {
      const FlowKey key = make_flow(f);
      WindowId first = 0, last = 0;
      if (!st->flow_extent(key, first, last)) continue;
      store::Query q;
      q.from = first;
      q.to = last + 1;
      q.flows = {key};
      const auto r = engine.run(q);
      const auto want = fcs.range(key, first, last + 1);
      double err = 0, ref = 0;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const double d = r.series[i] - want[i];
        err += d * d;
        ref += want[i] * want[i];
      }
      if (ref > 0) {
        nmse_sum += err / ref;
        ++nmse_flows;
      }
    }
  }
  const double nmse = nmse_flows > 0 ? nmse_sum / nmse_flows : 0.0;
  const double tier_ratio =
      tier_stats.compaction_input_bytes > 0
          ? static_cast<double>(tier_stats.compaction_output_bytes) /
                static_cast<double>(tier_stats.compaction_input_bytes)
          : 0.0;
  const double tier_in_mbs =
      tier_us > 0
          ? (static_cast<double>(tier_stats.compaction_input_bytes) / 1e6) /
                (tier_us / 1e6)
          : 0.0;

  std::printf("bench_store_io (%d flows x %d epochs)\n", flows, epochs);
  std::printf("  append:      %.2f MB in %.1f ms -> %.1f MB/s (%llu records, "
              "%llu seals)\n",
              append_mb, append_us / 1e3, append_mbs,
              static_cast<unsigned long long>(write_stats.appends),
              static_cast<unsigned long long>(write_stats.epochs_sealed));
  std::printf("  query:       cold %.1f us, warm-pages %.1f us "
              "(%zu buckets)\n",
              cold_us, warm_us, series_len);
  std::printf("  scrub:       %zu records re-verified in %.1f us "
              "(%.1f MB/s raw)\n",
              scrub_records, scrub_us, scrub_mbs);
  std::printf("  tiering:     %llu -> %llu bytes (ratio %.3f), "
              "mean NMSE %.4f over %d flows\n",
              static_cast<unsigned long long>(
                  tier_stats.compaction_input_bytes),
              static_cast<unsigned long long>(
                  tier_stats.compaction_output_bytes),
              tier_ratio, nmse, nmse_flows);
  std::printf("  compaction:  %.1f us over both hops (%.1f MB/s input)\n",
              tier_us, tier_in_mbs);
  std::printf("  tier hops:   0->1 payload ratio %.3f (budget 1/2), "
              "1->2 %.3f (budget 1/4 cumulative)\n",
              hop1_ratio, hop2_ratio);
  std::printf("  tiers:       t0 %zu segs / %llu B, t1 %zu / %llu, "
              "t2 %zu / %llu\n",
              tier_stats.tiers[0].segments,
              static_cast<unsigned long long>(tier_stats.tiers[0].bytes),
              tier_stats.tiers[1].segments,
              static_cast<unsigned long long>(tier_stats.tiers[1].bytes),
              tier_stats.tiers[2].segments,
              static_cast<unsigned long long>(tier_stats.tiers[2].bytes));

  bench::Snapshot snap("store_io");
  snap.set("flows", static_cast<std::uint64_t>(flows));
  snap.set("epochs", static_cast<std::uint64_t>(epochs));
  snap.set("append_mb", append_mb);
  snap.set("append_mbs", append_mbs);
  snap.set("append_records", write_stats.appends);
  snap.set("cold_query_us", cold_us);
  snap.set("warm_query_us", warm_us);
  snap.set("scrub_us", scrub_us);
  snap.set("scrub_mbs", scrub_mbs);
  snap.set("scrub_records", static_cast<std::uint64_t>(scrub_records));
  snap.set("tier_us", tier_us);
  snap.set("tier_in_mbs", tier_in_mbs);
  snap.set("tier_compaction_ratio", tier_ratio);
  snap.set("tier1_byte_ratio", hop1_ratio);
  snap.set("tier2_byte_ratio", hop2_ratio);
  snap.set("tier_mean_nmse", nmse);
  snap.set("tier1_segments", static_cast<std::uint64_t>(
                                 tier_stats.tiers[1].segments));
  snap.set("tier2_segments", static_cast<std::uint64_t>(
                                 tier_stats.tiers[2].segments));
  if (!snap.write(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("  snapshot:    %s\n", out.c_str());

  if (min_append_mbs > 0 && append_mbs < min_append_mbs) {
    std::fprintf(stderr, "GATE: append %.1f MB/s < %.1f MB/s\n", append_mbs,
                 min_append_mbs);
    return 1;
  }
  if (max_nmse > 0 && nmse > max_nmse) {
    std::fprintf(stderr, "GATE: NMSE %.4f > %.4f\n", nmse, max_nmse);
    return 1;
  }
  return 0;
}
