// Multi-period rate-curve storage. WaveSketch uploads one report per bucket
// per measurement period ("longer flows are handled in multiple reporting
// periods", Section 7.1); the analyzer must stitch those fragments into one
// continuous per-flow curve and serve range queries over absolute windows.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace umon::analyzer {

/// One reconstructed fragment of a flow's curve (the analyzer-side form of
/// a bucket report).
struct CurveFragment {
  WindowId w0 = 0;
  std::vector<double> bytes_per_window;
};

/// Trust level of one absolute window across the store. Reports can be
/// lost in transit; a window the pipeline could not fully recover must
/// never be indistinguishable from a genuinely idle one. Ordered by
/// severity: marking only ever upgrades (covered → ... → lost).
enum class WindowConfidence : std::uint8_t {
  kCovered = 0,        ///< delivered first try, nothing missing
  kRetransmitted = 1,  ///< recovered, but only after retransmits
  kGapFilled = 2,      ///< lost, values interpolated (gap-fill enabled)
  kLost = 3,           ///< lost, no recovery; stored values are partial
};

[[nodiscard]] constexpr const char* to_string(WindowConfidence c) {
  switch (c) {
    case WindowConfidence::kCovered: return "covered";
    case WindowConfidence::kRetransmitted: return "retransmitted";
    case WindowConfidence::kGapFilled: return "gap_filled";
    case WindowConfidence::kLost: return "lost";
  }
  return "unknown";
}

/// Write-through spill target for durable storage. The curve store remains
/// the authoritative in-RAM view; a sink (umon::store::Store) receives the
/// same sparse fragments and confidence marks as they arrive, so the
/// durable copy can never diverge from what the analyzer ingested. The
/// interface lives here (not in src/store) so the analyzer never depends on
/// the storage subsystem.
class CurveSink {
 public:
  virtual ~CurveSink() = default;
  /// One flow's non-zero windows, offset-corrected, sorted by window.
  virtual void on_sparse(
      const FlowKey& flow,
      std::span<const std::pair<WindowId, double>> windows) = 0;
  /// Mirror of mark_windows (upgrade-only confidence over [from, to)).
  virtual void on_mark(WindowId from, WindowId to, WindowConfidence conf) = 0;
};

class FlowCurveStore {
 public:
  explicit FlowCurveStore(int window_shift = kDefaultWindowShift)
      : window_shift_(window_shift) {}

  /// Attach (or detach with nullptr) a write-through spill sink. Not owned.
  void set_sink(CurveSink* sink) { sink_ = sink; }
  [[nodiscard]] CurveSink* sink() const { return sink_; }

  /// Add a fragment for `flow`. Overlapping windows accumulate (a window
  /// split across two periods uploads partial counts in each).
  void add(const FlowKey& flow, CurveFragment fragment);

  /// Add an already-sparse fragment: (absolute window, bytes) pairs, sorted
  /// by window. `window_offset` is subtracted from every window id (host
  /// clock correction). The collector's decode shards strip zeros in
  /// parallel so this serial section only touches non-zero windows.
  /// Windows after the flow's last stored one append; a late batch merges
  /// once with the stored tail it overlaps, never one insert per window.
  void add_sparse(const FlowKey& flow,
                  std::span<const std::pair<WindowId, double>> windows,
                  WindowId window_offset = 0);

  /// Dense curve over [from, to) absolute windows (zeros where unknown).
  /// When gap-fill is enabled, windows marked kLost are linearly
  /// interpolated between the flow's nearest stored neighbors instead of
  /// reading as (possibly partial) raw values — and only those windows;
  /// trusted data is never touched.
  [[nodiscard]] std::vector<double> range(const FlowKey& flow, WindowId from,
                                          WindowId to) const;

  // --- per-window confidence ------------------------------------------------
  /// Mark [from, to) with `conf`. Marks only upgrade: a window already
  /// flagged worse keeps its flag (several hosts may cover one window; if
  /// any of them lost it, the window is untrusted). Marking kCovered is a
  /// no-op — covered is the default.
  void mark_windows(WindowId from, WindowId to, WindowConfidence conf);

  /// Confidence of one window. Lost windows report kGapFilled only when
  /// gap-fill is enabled *and* range() will actually interpolate them:
  /// every flow whose stored curve spans the window has a trusted stored
  /// neighbor on both sides. A lost window range() would serve raw (at a
  /// flow's edge, or with no trusted neighbor) stays kLost — the label
  /// must never promise an interpolation the read path cannot deliver.
  [[nodiscard]] WindowConfidence confidence(WindowId w) const;

  /// Enable read-side interpolation across kLost windows. Off by default:
  /// untrusted data stays visibly degraded unless the operator opts in.
  void set_gap_fill(bool on) { gap_fill_ = on; }
  [[nodiscard]] bool gap_fill() const { return gap_fill_; }

  /// Count of explicitly marked windows per confidence class (kCovered is
  /// the unmarked default and always reports 0 here).
  [[nodiscard]] std::size_t marked_count(WindowConfidence conf) const;

  /// Every marked window and its flag, ascending by window (for exports).
  [[nodiscard]] const std::map<WindowId, WindowConfidence>& marks() const {
    return marks_;
  }

  /// Full extent of a flow's stored curve; false if unknown.
  bool extent(const FlowKey& flow, WindowId& first, WindowId& last) const;

  /// Total bytes stored for a flow (e.g., to rank heavy flows).
  [[nodiscard]] double total_bytes(const FlowKey& flow) const;

  /// Average rate in Gbps over the flow's active extent.
  [[nodiscard]] double average_gbps(const FlowKey& flow) const;

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] std::vector<FlowKey> flows() const;

  /// Total stored non-zero windows across all flows (tracked incrementally,
  /// O(1) to read).
  [[nodiscard]] std::size_t window_count() const { return total_windows_; }

  /// Approximate resident bytes of the store: per-flow entry overhead plus
  /// the reserved capacity of every flow's window vector (tracked
  /// incrementally, O(1) to read).
  [[nodiscard]] std::size_t memory_bytes() const {
    return flows_.size() * kEntryBytes + window_capacity_ * kWindowBytes;
  }

 private:
  using Window = std::pair<WindowId, double>;
  /// Sparse accumulated counters of one flow, sorted by window with one
  /// element per window. Its extent is front()/back().
  using WindowVec = std::vector<Window>;
  struct Entry {
    FlowKey key;
    WindowVec windows;
  };

 public:
  /// memory_bytes() cost model: one hash node per flow, one element of
  /// reserved vector capacity per window.
  static constexpr std::size_t kEntryBytes =
      sizeof(Entry) + 2 * sizeof(void*);
  static constexpr std::size_t kWindowBytes = sizeof(Window);

 private:
  /// Fold the windows appended to `e.windows` at [old_size, end) into the
  /// sorted vector: sort the batch stably, merge it with the part of the
  /// existing curve it overlaps and sum equal windows in arrival order.
  /// Costs O(m log m + overlapped tail) for a batch of m windows; an
  /// in-order batch (the usual case) only coalesces in place.
  void merge_appended(Entry& e, std::size_t old_size);

  [[nodiscard]] bool is_lost(WindowId w) const;
  /// Nearest stored neighbors of `w` in `windows` that are themselves
  /// trusted (not marked kLost); false when either side is missing.
  bool trusted_neighbors(const WindowVec& windows, WindowId w,
                         WindowVec::const_iterator& left,
                         WindowVec::const_iterator& right) const;
  /// True when range() can interpolate `w` for every flow spanning it.
  [[nodiscard]] bool gap_fillable(WindowId w) const;

  int window_shift_;
  std::unordered_map<std::uint64_t, Entry> flows_;
  std::size_t total_windows_ = 0;
  std::size_t window_capacity_ = 0;  ///< sum of windows.capacity()
  /// Store-global confidence marks (absent = kCovered). Global rather than
  /// per-flow: a lost epoch hides *which* flows it carried, so every flow's
  /// view of the affected windows is suspect.
  std::map<WindowId, WindowConfidence> marks_;
  /// The last run mark_windows walked. Marks only upgrade and are never
  /// removed, so each of its windows still carries at least `conf`.
  struct MarkRun {
    WindowId from = 0;
    WindowId to = 0;
    WindowConfidence conf = WindowConfidence::kCovered;
  } last_mark_;
  bool gap_fill_ = false;
  CurveSink* sink_ = nullptr;
};

}  // namespace umon::analyzer
