// umon::store — on-demand query engine over a Store.
//
// A Query selects a window range plus an optional flow list or host (all
// flows whose src_ip matches), and groups the combined curve into output
// buckets of `resolution` windows with one of sum / avg / max / p99. The
// engine reads only the chunks overlapping the range: tier-0 sparse chunks
// contribute their exact values, tiered chunks are inverse-Haar
// reconstructed on demand (wavelet::reconstruct) — nothing is materialized
// ahead of the query.
//
// The engine keeps no cache: every run() reads the store. Repeat queries
// are answered by umon::serve's response cache, keyed on fingerprint().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "common/types.hpp"
#include "store/store.hpp"

namespace umon::store {

enum class GroupOp : std::uint8_t { kSum = 0, kAvg = 1, kMax = 2, kP99 = 3 };

[[nodiscard]] constexpr const char* to_string(GroupOp op) {
  switch (op) {
    case GroupOp::kSum: return "sum";
    case GroupOp::kAvg: return "avg";
    case GroupOp::kMax: return "max";
    case GroupOp::kP99: return "p99";
  }
  return "unknown";
}

[[nodiscard]] std::optional<GroupOp> parse_group_op(const std::string& name);

struct Query {
  WindowId from = 0;  ///< absolute windows, half-open [from, to)
  WindowId to = 0;
  /// Windows per output bucket (>= 1). The last bucket may be partial.
  std::uint32_t resolution = 1;
  GroupOp op = GroupOp::kSum;
  /// Explicit flow selection; empty = every stored flow.
  std::vector<FlowKey> flows;
  /// Further restrict to flows with this src_ip (host selector).
  std::optional<std::uint32_t> src_host;
};

struct QueryResult {
  /// Executed range: the requested [from, to) clamped to the store's window
  /// extent, so a hostile range cannot force a dense allocation beyond the
  /// data. Buckets start at `from`.
  WindowId from = 0;
  WindowId to = 0;
  std::uint32_t resolution = 1;
  GroupOp op = GroupOp::kSum;
  std::size_t flows_matched = 0;
  /// One value per bucket: `op` applied to the per-window totals (summed
  /// across the matched flows) inside the bucket.
  std::vector<double> series;
  /// Worst store-wide confidence mark inside each bucket.
  std::vector<analyzer::WindowConfidence> confidence;
};

class QueryEngine {
 public:
  explicit QueryEngine(Store& store) : store_(store) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Execute against the store. Invalid queries (from >= to,
  /// resolution == 0) return an empty result.
  [[nodiscard]] QueryResult run(const Query& q) const;

  /// Stable FNV-1a identity for a query's selection fields, the key of
  /// outer caches (the HTTP response cache in umon::serve) together with
  /// the store generation.
  [[nodiscard]] static std::uint64_t fingerprint(const Query& q);

 private:
  Store& store_;
};

}  // namespace umon::store
