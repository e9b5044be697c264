#include "store/query.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/stats.hpp"
#include "obs/prof.hpp"
#include "wavelet/reconstruct.hpp"

namespace umon::store {
namespace {

/// FNV-1a mixing for the fingerprint. It is a cache key's identity (no exact
/// query comparison behind it), so every selection field is folded in.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::optional<GroupOp> parse_group_op(const std::string& name) {
  if (name == "sum") return GroupOp::kSum;
  if (name == "avg") return GroupOp::kAvg;
  if (name == "max") return GroupOp::kMax;
  if (name == "p99") return GroupOp::kP99;
  return std::nullopt;
}

std::uint64_t QueryEngine::fingerprint(const Query& q) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv1a(h, static_cast<std::uint64_t>(q.from));
  h = fnv1a(h, static_cast<std::uint64_t>(q.to));
  h = fnv1a(h, q.resolution);
  h = fnv1a(h, static_cast<std::uint64_t>(q.op));
  h = fnv1a(h, q.src_host.has_value() ? (*q.src_host | (1ull << 32)) : 0);
  for (const FlowKey& f : q.flows) h = fnv1a(h, f.packed());
  return h;
}

QueryResult QueryEngine::run(const Query& q) const {
  if (q.from >= q.to || q.resolution == 0) return QueryResult{};
  UMON_PROF_SCOPE(kQueryExec);
  QueryResult result;
  result.from = q.from;
  result.to = q.to;
  result.resolution = q.resolution;
  result.op = q.op;

  // Clamp the materialized range to the store's extent: `totals` is dense,
  // so unclamped caller-supplied bounds would allocate (to - from) doubles
  // regardless of how little data exists — a hostile umon_query range must
  // not be able to force a multi-GB allocation. The clamped bounds are
  // reported back via result.from / result.to.
  WindowId ext_first = 0;
  WindowId ext_last = 0;
  if (!store_.window_extent(ext_first, ext_last)) return result;
  const WindowId from = std::max(q.from, ext_first);
  const WindowId to = std::min(q.to, static_cast<WindowId>(ext_last + 1));
  if (from >= to) return result;
  result.from = from;
  result.to = to;

  // Per-window totals across the matched flows over [from, to), read under
  // one store lock in the selection's flow order.
  const std::size_t n = static_cast<std::size_t>(to - from);
  std::vector<double> totals(n, 0.0);
  std::size_t last_flow = SIZE_MAX;
  store_.visit_flows(q.flows, q.src_host, from, to,
                     [&](std::size_t flow, const ChunkView& chunk) {
    if (flow != last_flow) {
      last_flow = flow;
      ++result.flows_matched;
    }
    if (chunk.kind == RecordKind::kSparseCurve) {
      for (const auto& [w, v] : chunk.sparse->windows) {
        if (w < from || w >= to) continue;
        totals[static_cast<std::size_t>(w - from)] += v;
      }
    } else if (chunk.kind == RecordKind::kCoeffCurve) {
      // On-demand inverse Haar at the chunk's native resolution; only the
      // overlap with the query range is folded in.
      const CoeffCurveRecord& rec = *chunk.coeff;
      const std::vector<double> dense = wavelet::reconstruct(
          rec.approx, rec.details, rec.length, rec.levels);
      const WindowId lo = std::max(from, rec.w0);
      const WindowId hi =
          std::min(to, rec.w0 + static_cast<WindowId>(rec.length));
      for (WindowId w = lo; w < hi; ++w) {
        totals[static_cast<std::size_t>(w - from)] +=
            dense[static_cast<std::size_t>(w - rec.w0)];
      }
    }
  });

  // Group into buckets of `resolution` windows (last one may be partial).
  const std::size_t buckets = (n + q.resolution - 1) / q.resolution;
  result.series.resize(buckets, 0.0);
  result.confidence = store_.bucket_confidence(from, to, q.resolution);
  std::vector<double> scratch;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t lo = b * q.resolution;
    const std::size_t hi = std::min(n, lo + q.resolution);
    switch (q.op) {
      case GroupOp::kSum: {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += totals[i];
        result.series[b] = acc;
        break;
      }
      case GroupOp::kAvg: {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += totals[i];
        result.series[b] = acc / static_cast<double>(hi - lo);
        break;
      }
      case GroupOp::kMax: {
        double best = 0.0;
        for (std::size_t i = lo; i < hi; ++i) best = std::max(best, totals[i]);
        result.series[b] = best;
        break;
      }
      case GroupOp::kP99: {
        scratch.assign(totals.begin() + static_cast<std::ptrdiff_t>(lo),
                       totals.begin() + static_cast<std::ptrdiff_t>(hi));
        result.series[b] = percentile(std::move(scratch), 0.99);
        break;
      }
    }
  }
  return result;
}

}  // namespace umon::store
