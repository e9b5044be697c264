// umon_query — on-demand queries over a durable umon::store directory.
//
// Opens a store written by `umon_sim --store-dir DIR` (read-only: torn
// tails from a crashed writer are skipped, never truncated) and runs one
// grouped time-range query through the store::QueryEngine. Tier-0 ranges
// read back the exact spilled curves; aged ranges are inverse-Haar
// reconstructed from the retained top-K coefficients on demand.
//
// usage: umon_query --store-dir DIR [--from-us T] [--to-us T]
//                   [--resolution N] [--op sum|avg|max|p99]
//                   [--host SRC_IP] [--flow SRC:SPORT:DST:DPORT[:PROTO]]
//                   [--list-flows] [--max-rows N] [--json] [--csv]
//
// Times are event-time microseconds; the default range is the union of
// every stored flow's extent. --resolution is output-bucket width in
// windows (8.192 us each at the default shift). --flow may repeat.
//
// The human-readable table is the default. --json switches stdout to one
// machine-readable JSON object with a stable key order (scripts may diff
// it byte-for-byte); --csv emits the series as comma-separated rows.
// Both go through store::query_io — the same serializer that backs the
// umon::serve `/api/v1/query` HTTP endpoint, so the CLI and HTTP bytes
// cannot drift. Unlike the table, neither truncates at --max-rows, and
// diagnostics stay on stderr either way.
//
// Exit codes: 0 = query ran (even if it matched no data), 1 = store
// open/read error, 2 = usage error. The HTTP endpoint maps these to
// 200 / 503 / 400 (see store/query_io.hpp).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "store/query.hpp"
#include "store/query_io.hpp"
#include "store/store.hpp"

using namespace umon;

namespace {

struct Options {
  std::string store_dir;
  std::optional<double> from_us;
  std::optional<double> to_us;
  std::uint32_t resolution = 8;
  store::GroupOp op = store::GroupOp::kSum;
  std::optional<std::uint32_t> host;
  std::vector<FlowKey> flows;
  bool list_flows = false;
  std::size_t max_rows = 64;
  bool json = false;
  bool csv = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: umon_query --store-dir DIR [--from-us T] [--to-us T]\n"
      "                  [--resolution N] [--op sum|avg|max|p99]\n"
      "                  [--host SRC_IP] [--flow SRC:SPORT:DST:DPORT[:PROTO]]\n"
      "                  [--list-flows] [--max-rows N] [--json] [--csv]\n"
      "exit codes: 0 query ran (possibly empty), 1 store error, 2 usage\n");
}

bool parse_flow(const char* text, FlowKey& out) {
  unsigned src = 0, sport = 0, dst = 0, dport = 0, proto = 6;
  const int n = std::sscanf(text, "%u:%u:%u:%u:%u", &src, &sport, &dst,
                            &dport, &proto);
  if (n < 4 || sport > 0xFFFF || dport > 0xFFFF || proto > 0xFF) return false;
  out = FlowKey{src, dst, static_cast<std::uint16_t>(sport),
                static_cast<std::uint16_t>(dport),
                static_cast<std::uint8_t>(proto)};
  return true;
}

bool parse(int argc, char** argv, Options& opt) {
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--store-dir" && (v = next(i))) {
      opt.store_dir = v;
    } else if (arg == "--from-us" && (v = next(i))) {
      opt.from_us = std::atof(v);
    } else if (arg == "--to-us" && (v = next(i))) {
      opt.to_us = std::atof(v);
    } else if (arg == "--resolution" && (v = next(i))) {
      opt.resolution = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--op" && (v = next(i))) {
      const auto op = store::parse_group_op(v);
      if (!op) {
        std::fprintf(stderr, "unknown --op %s\n", v);
        return false;
      }
      opt.op = *op;
    } else if (arg == "--host" && (v = next(i))) {
      opt.host = static_cast<std::uint32_t>(std::atoll(v));
    } else if (arg == "--flow" && (v = next(i))) {
      FlowKey f;
      if (!parse_flow(v, f)) {
        std::fprintf(stderr, "bad --flow %s (want SRC:SPORT:DST:DPORT[:PROTO])\n",
                     v);
        return false;
      }
      opt.flows.push_back(f);
    } else if (arg == "--list-flows") {
      opt.list_flows = true;
    } else if (arg == "--max-rows" && (v = next(i))) {
      opt.max_rows = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opt.store_dir.empty() || opt.resolution == 0) return false;
  if (opt.json && opt.csv) {
    std::fprintf(stderr, "--json and --csv are mutually exclusive\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }

  store::StoreConfig cfg;
  cfg.dir = opt.store_dir;
  store::RecoveryInfo rinfo;
  auto st = store::Store::open(cfg, &rinfo, /*writable=*/false);
  if (!st) {
    std::fprintf(stderr, "cannot open store %s\n", opt.store_dir.c_str());
    return 1;
  }

  const store::StoreHead head =
      store::make_head(opt.store_dir, rinfo, st->flow_count());
  if (!opt.json && !opt.csv) {
    std::printf("store %s: %zu segment(s), %zu flow(s), last sealed epoch "
                "%s\n",
                opt.store_dir.c_str(), head.segments, head.flows,
                head.last_sealed_epoch
                    ? std::to_string(*head.last_sealed_epoch).c_str()
                    : "none");
    if (head.torn_tails > 0) {
      std::printf("  (%zu torn tail(s) skipped — writer did not shut down "
                  "cleanly)\n",
                  head.torn_tails);
    }
  }

  if (opt.list_flows) {
    const auto extents = store::flow_extents(*st);
    if (opt.json) {
      store::write_flow_list_json(std::cout, head, extents);
      return 0;
    }
    if (opt.csv) {
      store::write_flow_list_csv(std::cout, extents);
      return 0;
    }
    std::size_t shown = 0;
    for (const auto& row : extents) {
      std::printf("  %-32s windows [%lld, %lld]  (%.1f us .. %.1f us)\n",
                  row.flow.to_string().c_str(),
                  static_cast<long long>(row.first),
                  static_cast<long long>(row.last),
                  static_cast<double>(window_start(row.first)) / 1e3,
                  static_cast<double>(window_start(row.last + 1)) / 1e3);
      if (++shown >= opt.max_rows && shown < extents.size()) {
        std::printf("  ... (%zu more; raise --max-rows)\n",
                    extents.size() - shown);
        break;
      }
    }
    return 0;
  }
  // Default range: the store's curve extent, the union of every stored flow
  // extent.
  WindowId first = 0, last = 0;
  if (!st->curve_extent(first, last)) {
    if (opt.json) {
      store::write_empty_json(std::cout, head);
    } else if (opt.csv) {
      store::write_query_csv(std::cout, store::QueryResult{});
    } else {
      std::printf("store holds no curve data\n");
    }
    return 0;
  }

  store::Query q;
  q.from =
      opt.from_us ? window_of(static_cast<Nanos>(*opt.from_us * 1e3)) : first;
  q.to = opt.to_us ? window_of(static_cast<Nanos>(*opt.to_us * 1e3)) + 1
                   : last + 1;
  q.resolution = opt.resolution;
  q.op = opt.op;
  q.flows = opt.flows;
  q.src_host = opt.host;

  store::QueryEngine engine(*st);
  const store::QueryResult r = engine.run(q);
  if (opt.json) {
    store::write_query_json(std::cout, head, r);
    return 0;
  }
  if (opt.csv) {
    store::write_query_csv(std::cout, r);
    return 0;
  }
  if (r.series.empty()) {
    std::printf("query matched no data in [%lld, %lld)\n",
                static_cast<long long>(q.from), static_cast<long long>(q.to));
    return 0;
  }

  const double bucket_us =
      static_cast<double>(window_length()) * q.resolution / 1e3;
  std::printf("\n%s over %zu flow(s), windows [%lld, %lld), "
              "%u windows/bucket (%.1f us)\n",
              store::to_string(r.op), r.flows_matched,
              static_cast<long long>(r.from), static_cast<long long>(r.to),
              r.resolution, bucket_us);
  std::printf("  %12s  %16s  %s\n", "t (us)", "bytes", "confidence");
  std::size_t rows = 0;
  for (std::size_t i = 0; i < r.series.size(); ++i) {
    const WindowId w = r.from + static_cast<WindowId>(i) * r.resolution;
    const auto conf = r.confidence[i];
    std::printf("  %12.1f  %16.1f  %s\n",
                static_cast<double>(window_start(w)) / 1e3, r.series[i],
                conf == analyzer::WindowConfidence::kCovered
                    ? ""
                    : analyzer::to_string(conf));
    if (++rows >= opt.max_rows && i + 1 < r.series.size()) {
      std::printf("  ... (%zu more buckets; raise --max-rows)\n",
                  r.series.size() - rows);
      break;
    }
  }
  return 0;
}
