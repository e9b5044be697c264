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
// Results are memoized in a small LRU keyed on (query fingerprint, store
// generation): a seal, roll, compaction or quarantine bumps the generation
// and old entries stop matching. Appends do not bump it, so an entry that
// read the unsealed tail can go stale within one generation.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
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
  bool cache_hit = false;
};

class QueryEngine {
 public:
  explicit QueryEngine(Store& store, std::size_t cache_entries = 32)
      : store_(store), cache_entries_(cache_entries) {}

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Execute (or replay from cache). Invalid queries (from >= to,
  /// resolution == 0) return an empty result.
  [[nodiscard]] QueryResult run(const Query& q);

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const {
    return CacheStats{hits_, misses_, cache_.size()};
  }

  /// Stable FNV-1a identity for a query's selection fields. Public so
  /// outer caches (the HTTP response cache in umon::serve) can key on the
  /// same (fingerprint, store generation) pair as the engine's own LRU.
  [[nodiscard]] static std::uint64_t fingerprint(const Query& q);
  void clear_cache() {
    cache_.clear();
    lru_.clear();
  }

 private:
  struct CacheKey {
    std::uint64_t fingerprint = 0;
    std::uint64_t generation = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return static_cast<std::size_t>(k.fingerprint ^
                                      (k.generation * 0x9E3779B97F4A7C15ull));
    }
  };
  struct CacheEntry {
    QueryResult result;
    std::list<CacheKey>::iterator lru_pos;
  };

  [[nodiscard]] QueryResult execute(const Query& q) const;

  Store& store_;
  std::size_t cache_entries_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::list<CacheKey> lru_;  ///< front = most recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace umon::store
