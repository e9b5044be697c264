// umon::store — durable wavelet-tiered curve store.
//
// The Store owns a directory of append-only segment files (segment.hpp), a
// page cache over them (page_cache.hpp), an in-RAM chunk index (flow →
// {segment, offset, window extent}), and the store-global confidence marks.
// Writes go to one active tier-0 segment; seal_epoch() is the durability
// barrier (fsync) and rolls the active segment every `segment_epochs`
// seals. maintain() ages sealed segments down the wavelet tiers: a tier-0
// segment older than `tier1_age_epochs` is rewritten keeping the top
// tier_budget/2 Haar coefficients per flow, a tier-1 segment older than
// `tier2_age_epochs` keeps tier_budget/4 (tier.hpp) — old data keeps its
// burst structure at a fraction of the bytes instead of being downsampled.
//
// Crash safety: recovery (open) truncates torn/unsealed tails back to the
// last verified epoch seal, finishes interrupted compactions (a `.tmp`
// output is deleted; a renamed-but-not-yet-unlinked source is detected via
// the replaces_segment_id header field and unlinked), and rebuilds the
// index by scanning every surviving segment.
//
// Query-side views are kept as state, not rebuilt by scanning: the flow keys
// in sorted order (a new key is appended in O(1); the next reader of the
// order sorts the new keys once and merges them in; entries are never
// erased), and the union extent of every indexed chunk. Inserting a chunk
// widens the extent in O(1); a path that removes chunks (quarantine,
// failed-seal reconcile, a disowned roll) marks it stale and the next read
// recomputes it once. A compaction only widens it: a tier-1 chunk is a padded
// power-of-two span covering the windows of its source.
//
// Thread safety: all public members are serialized by an internal mutex, so
// queries can run against a live writer. maintain() compacts on the calling
// thread and holds the mutex for the whole pass; the store starts no thread
// of its own. The write path itself assumes a single appender.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "common/types.hpp"
#include "store/page_cache.hpp"
#include "store/segment.hpp"
#include "telemetry/metrics.hpp"

namespace umon::obs {
class LineageTracker;
}

namespace umon::store {

struct StoreConfig {
  std::string dir;
  std::size_t page_bytes = 1u << 16;
  std::size_t cache_budget_bytes = 8u << 20;
  /// Roll the active tier-0 segment after this many sealed epochs.
  std::uint32_t segment_epochs = 4;
  /// K: tier-1 keeps K/2 coefficients per flow chunk, tier-2 keeps K/4.
  std::size_t tier_budget = 64;
  /// Compact a tier-0 segment once every epoch it holds is at least this
  /// many epochs behind the current one; 0 disables tiering.
  std::uint32_t tier1_age_epochs = 8;
  std::uint32_t tier2_age_epochs = 16;
  /// Dense-transform chunk cap: a flow extent longer than this is split
  /// into aligned chunks (bounds compaction memory for long-lived flows).
  std::size_t max_chunk_windows = 1u << 12;
  int window_shift = kDefaultWindowShift;
  bool fsync_on_seal = true;
  /// Keep a compaction source alive (still serving, still on disk) for this
  /// many epochs after its coarse replacement lands, as a read-repair
  /// shadow: if scrub or a query finds rot in the exact copy during the
  /// grace window, the coarse copy is promoted instead of losing the
  /// windows. 0 = swap immediately (no shadow). A crash during the grace
  /// window keeps only the coarse copy (recovery unlinks the source its
  /// replacement names), which is the same outcome as an expired grace.
  std::uint32_t repair_grace_epochs = 0;
  /// File-I/O shim every store syscall routes through; null = real_io().
  FileIo* io = nullptr;
};

struct RecoveryInfo {
  std::size_t segments_opened = 0;
  std::size_t torn_tails_truncated = 0;   ///< files cut back to a seal
  std::size_t stale_sources_unlinked = 0; ///< compaction inputs left behind
  std::size_t tmp_files_removed = 0;      ///< interrupted compaction outputs
  std::size_t empty_segments_removed = 0; ///< no sealed epoch survived
  std::size_t records_recovered = 0;
  std::optional<std::uint32_t> last_sealed_epoch;
};

struct TierUsage {
  std::size_t segments = 0;
  std::uint64_t bytes = 0;
};

struct StoreStats {
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;       ///< encoded payload bytes appended
  std::uint64_t epochs_sealed = 0;
  std::uint64_t segments_created = 0;
  std::uint64_t segments_removed = 0;
  std::uint64_t compactions_tier1 = 0;
  std::uint64_t compactions_tier2 = 0;
  std::uint64_t compaction_input_bytes = 0;
  std::uint64_t compaction_output_bytes = 0;
  std::uint64_t seal_failures = 0;        ///< epoch seals that failed IO
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_corrupt_records = 0;
  std::uint64_t chunks_quarantined = 0;   ///< corrupt chunks never served again
  std::uint64_t chunks_repaired = 0;      ///< promoted from a coarser shadow
  TierUsage tiers[3];
  PageCacheStats cache;
};

/// One corrupt byte range found by a scrub pass (audit JSONL row).
struct ScrubFinding {
  std::uint32_t segment_id = 0;
  std::uint8_t tier = 0;
  std::uint64_t offset = 0;   ///< file offset of the corrupt span
  std::uint64_t length = 0;
  std::size_t chunks_quarantined = 0;
  std::size_t chunks_repaired = 0;
};

/// Outcome of one Store::scrub pass.
struct ScrubReport {
  std::size_t segments_scanned = 0;
  std::uint64_t bytes_scanned = 0;
  std::size_t records_verified = 0;
  std::size_t corrupt_records = 0;
  std::size_t chunks_quarantined = 0;
  std::size_t chunks_repaired = 0;
  std::uint64_t windows_lost = 0;  ///< windows downgraded to kLost, no repair
  std::vector<ScrubFinding> findings;
};

/// One decoded chunk handed to a visit_flow callback. Exactly one of
/// `sparse` / `coeff` is non-null, matching `kind`.
struct ChunkView {
  std::uint8_t tier = 0;
  RecordKind kind = RecordKind::kSparseCurve;
  analyzer::WindowConfidence confidence = analyzer::WindowConfidence::kCovered;
  const SparseCurveRecord* sparse = nullptr;
  const CoeffCurveRecord* coeff = nullptr;
};

class Store : public analyzer::CurveSink {
 public:
  /// Open (creating the directory if needed) and recover. Returns nullptr
  /// when the directory cannot be created/opened. `writable = false` opens
  /// for queries only: torn tails are ignored instead of truncated and no
  /// active segment is ever created.
  static std::unique_ptr<Store> open(const StoreConfig& cfg,
                                     RecoveryInfo* info = nullptr,
                                     bool writable = true);
  ~Store() override;

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // --- write path (single appender) ----------------------------------------
  /// Append one flow's sparse windows, sorted by window, to the current
  /// epoch. Values accumulate across records on read, so write-through
  /// deltas are fine.
  void append_sparse(const FlowKey& flow,
                     std::span<const std::pair<WindowId, double>> windows);

  /// Upgrade-only confidence marking, persisted at the next seal.
  void mark_confidence(WindowId from, WindowId to,
                       analyzer::WindowConfidence conf);

  // analyzer::CurveSink — attach via FlowCurveStore::set_sink(store) to
  // spill everything the analyzer ingests straight through to disk.
  void on_sparse(const FlowKey& flow,
                 std::span<const std::pair<WindowId, double>> windows) override {
    append_sparse(flow, windows);
  }
  void on_mark(WindowId from, WindowId to,
               analyzer::WindowConfidence conf) override {
    mark_confidence(from, to, conf);
  }

  /// Seal the current epoch: confidence runs + seal record + fsync. Rolls
  /// the active segment per config. Returns false on IO failure.
  [[nodiscard]] bool seal_epoch();

  /// Compact every sealed segment old enough for the next tier (and swap
  /// in shadow replacements whose grace expired). Returns the number of
  /// segments rewritten.
  std::size_t maintain();

  /// One scrub pass: re-verify every sealed segment's record CRCs against
  /// the raw disk bytes (bypassing the page cache, which may still hold the
  /// good pre-rot copy). Corrupt records are quarantined — removed from the
  /// index so they can never be served — their windows downgraded to
  /// `lost`, and, when a read-repair shadow covers them, replaced by the
  /// coarser copy at `gap_filled` confidence. The CRC walk runs without the
  /// store lock; only the snapshot and the quarantine/repair commit lock.
  ScrubReport scrub();

  // --- read path ------------------------------------------------------------
  /// Decode every chunk of `flow` overlapping [from, to) in tier order
  /// (exact tier-0 first). Thread-safe against the writer.
  void visit_flow(const FlowKey& flow, WindowId from, WindowId to,
                  const std::function<void(const ChunkView&)>& fn);

  /// visit_flow for many flows under one lock: each flow of `flows` in
  /// order, or every stored flow in flows() order when `flows` is empty,
  /// skipping flows whose src_ip is not `src_host` when one is given. `fn`
  /// gets the flow's position in that walk with each of its chunks, which
  /// arrive in visit_flow's order.
  void visit_flows(
      std::span<const FlowKey> flows, std::optional<std::uint32_t> src_host,
      WindowId from, WindowId to,
      const std::function<void(std::size_t, const ChunkView&)>& fn);

  /// Every indexed flow key (including flows whose chunks were all dropped),
  /// ordered by packed key. Only keys new since the last call are sorted.
  [[nodiscard]] std::vector<FlowKey> flows() const;
  /// flows().size() in O(1).
  [[nodiscard]] std::size_t flow_count() const;
  [[nodiscard]] bool flow_extent(const FlowKey& flow, WindowId& first,
                                 WindowId& last) const;
  /// Union window extent (inclusive) over every indexed chunk — the curve
  /// data, without the confidence marks; false when no chunk is indexed.
  /// Equals the union of every flow_extent().
  [[nodiscard]] bool curve_extent(WindowId& first, WindowId& last) const;
  /// curve_extent() joined with the first and last marked window; false
  /// when the store holds nothing. Queries clamp to it so a hostile range
  /// cannot force a dense allocation beyond the data.
  [[nodiscard]] bool window_extent(WindowId& first, WindowId& last) const;
  /// Worst confidence mark over [from, to) (kCovered when unmarked):
  /// bucket_confidence() with one bucket.
  [[nodiscard]] analyzer::WindowConfidence worst_confidence(WindowId from,
                                                            WindowId to) const;
  /// Worst confidence mark (kCovered when unmarked) of each bucket of
  /// `resolution` windows that splits [from, to) (the last one may be
  /// partial), in one walk of the marks.
  [[nodiscard]] std::vector<analyzer::WindowConfidence> bucket_confidence(
      WindowId from, WindowId to, WindowId resolution) const;

  /// Monotone version of the readable contents; bumps on every seal, roll,
  /// and compaction. Query caches key on it.
  [[nodiscard]] std::uint64_t generation() const;
  [[nodiscard]] std::uint32_t current_epoch() const;
  [[nodiscard]] std::optional<std::uint32_t> last_sealed_epoch() const;

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const telemetry::MetricRegistry& telemetry_registry() const {
    return registry_;
  }
  [[nodiscard]] const StoreConfig& config() const { return cfg_; }

  /// Report-lineage tap: every append is credited (as a spill) to the
  /// (host, epoch) whose analyzer ingest is currently on the call stack.
  /// Set before wiring the store as a curve sink; the tracker must outlive
  /// the store.
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }

 private:
  struct ChunkRef {
    std::uint32_t segment_id = 0;
    std::uint64_t payload_offset = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t payload_crc = 0;  ///< re-verified on every read
    RecordKind kind = RecordKind::kSparseCurve;
    analyzer::WindowConfidence confidence =
        analyzer::WindowConfidence::kCovered;
    std::uint32_t epoch = 0;
    WindowId w0 = 0;  ///< inclusive window extent of the chunk
    WindowId w1 = 0;
  };

  struct FlowEntry {
    FlowKey key;
    std::vector<ChunkRef> chunks;
  };

  struct Segment {
    SegmentHeader header;
    std::string path;
    std::uint64_t bytes = 0;
    std::uint32_t max_epoch = 0;
    std::optional<SegmentReader> reader;  ///< sealed segments only
    /// The compactor's scan stopped short of `bytes` (rot on disk) or hit an
    /// undecodable record: maintain() leaves the segment exact for good.
    bool compaction_refused = false;
  };

  /// A compaction output serving as read-repair insurance: its chunks stay
  /// out of the flow index until the grace window expires (the exact source
  /// keeps serving), unless rot in the source promotes them early.
  struct Shadow {
    std::uint32_t source_id = 0;
    std::uint32_t shadow_id = 0;
    std::uint32_t swap_epoch = 0;  ///< maintain() swaps at/after this epoch
    std::unordered_map<std::uint64_t, std::vector<ChunkRef>> chunks;
  };

  /// Inclusive window range; `any` is false while it holds nothing.
  struct Extent {
    bool any = false;
    WindowId first = 0;
    WindowId last = 0;
    void widen(WindowId lo, WindowId hi) {
      first = any ? std::min(first, lo) : lo;
      last = any ? std::max(last, hi) : hi;
      any = true;
    }
  };

  struct Instruments;
  friend struct StoreIndexAudit;  // test-side full scans of the raw index

  Store(const StoreConfig& cfg, bool writable);

  bool recover(RecoveryInfo* info);
  void index_record(std::uint32_t segment_id, const RecordHeader& rh,
                    std::uint64_t payload_offset,
                    std::span<const std::uint8_t> payload,
                    std::size_t* records = nullptr);
  /// The index entry of `flow`, created (and appended to `ordered_`) on
  /// first sight. Lock held.
  FlowEntry& entry_locked(const FlowKey& flow);
  /// `ordered_` with any keys appended since the last call sorted and
  /// merged in. Lock held.
  const std::vector<FlowEntry*>& ordered_locked() const;
  /// Index one chunk of `flow`, widening the curve extent. Lock held.
  void add_chunk_locked(FlowEntry& entry, const ChunkRef& ref);
  /// The curve extent, recomputed first if a removal left it stale.
  const Extent& curve_extent_locked() const;
  /// Decode and deliver `entry`'s chunks overlapping [from, to) in tier
  /// order, quarantining any that fail their CRC. `order` and `buf` are
  /// scratch reused across calls.
  void visit_entry_locked(
      const FlowEntry& entry, WindowId from, WindowId to,
      std::vector<const ChunkRef*>& order, std::vector<std::uint8_t>& buf,
      const std::function<void(const ChunkView&)>& fn);
  void ensure_writer();
  void roll_active_locked();
  /// Seal failed: close the active writer, drop its cache pages, re-open
  /// the file to its durable prefix, and flag what was acknowledged but
  /// lost as kLost.
  void fail_active_locked();
  /// Reconcile the index of segment `id` with the disk after its writer
  /// failed: keep chunks the durable prefix still covers, drop the rest.
  void reconcile_failed_segment_locked(std::uint32_t id,
                                       const std::string& path);
  void mark_confidence_locked(WindowId from, WindowId to,
                              analyzer::WindowConfidence conf);
  /// Worst mark over non-empty, window-sorted `windows` (kCovered when
  /// none is marked). Lock held.
  [[nodiscard]] analyzer::WindowConfidence worst_mark(
      std::span<const std::pair<WindowId, double>> windows) const;
  /// Remove `bad` chunks of flow `packed` from the index; promote covering
  /// shadow chunks where a read-repair shadow survives, flag kLost where
  /// none does. Returns repaired/lost tallies through the out-params.
  void quarantine_chunks_locked(std::uint64_t packed,
                                const std::vector<ChunkRef>& bad,
                                std::size_t* repaired,
                                std::uint64_t* windows_lost);
  /// Swap shadow replacements whose grace window expired.
  void swap_due_shadows_locked();

  struct ScrubTarget {
    std::uint32_t id = 0;
    std::uint8_t tier = 0;
    std::string path;
    std::uint64_t bytes = 0;
  };
  struct ScrubDamage {
    ScrubTarget target;
    /// Corrupt [offset, offset+length) spans found by the raw walk.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  };
  /// Phase 1 of scrub: snapshot the sealed segments (locks internally).
  [[nodiscard]] std::vector<ScrubTarget> scrub_snapshot() const;
  /// Phase 3 of scrub: re-validate the snapshot and quarantine/repair
  /// (locks internally). The raw CRC walk between them holds no lock.
  void scrub_commit(const std::vector<ScrubDamage>& damaged,
                    ScrubReport* report);
  [[nodiscard]] int fd_for_segment(std::uint32_t segment_id) const;
  /// Rewrite `seg` as a tier-(seg.tier+1) segment; returns false on IO
  /// failure (the source is left untouched).
  bool compact_segment_locked(std::uint32_t segment_id);
  void remove_segment_locked(std::uint32_t segment_id);
  void publish_gauges_locked();

  StoreConfig cfg_;
  bool writable_;
  obs::LineageTracker* lineage_ = nullptr;
  FileIo* io_;
  mutable std::mutex mutex_;
  PageCache cache_;
  std::map<std::uint32_t, Segment> segments_;  ///< by segment id, all tiers
  std::vector<Shadow> shadows_;  ///< pending read-repair replacements
  std::unique_ptr<SegmentWriter> active_;
  std::uint32_t next_segment_id_ = 1;
  std::uint32_t epoch_ = 0;
  std::optional<std::uint32_t> last_sealed_;
  std::uint64_t generation_ = 1;
  std::unordered_map<std::uint64_t, FlowEntry> flows_;
  /// Every flows_ entry (node addresses are stable): the first
  /// `ordered_sorted_` by packed key, then new keys in arrival order.
  mutable std::vector<FlowEntry*> ordered_;
  mutable std::size_t ordered_sorted_ = 0;
  /// Union of every indexed chunk's [w0, w1]; stale after a removal.
  mutable Extent curve_extent_;
  mutable bool curve_extent_stale_ = false;
  std::map<WindowId, analyzer::WindowConfidence> marks_;
  std::vector<ConfidenceRun> pending_runs_;  ///< marks made this epoch
  /// The last run mark_confidence_locked walked into marks_. Marks only
  /// get worse and are never erased, so its windows still carry at least
  /// its class.
  ConfidenceRun last_mark_;
  PageCacheStats cache_published_;  ///< last counter values pushed to telemetry
  telemetry::MetricRegistry registry_;
  std::unique_ptr<Instruments> ins_;
  StoreStats stats_;
};

}  // namespace umon::store
