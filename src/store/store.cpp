#include "store/store.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

#include <fcntl.h>

#include "obs/lineage.hpp"
#include "obs/prof.hpp"
#include "resilience/crc32c.hpp"
#include "store/io.hpp"
#include "store/tier.hpp"
#include "wavelet/haar.hpp"

namespace umon::store {
namespace {

using analyzer::WindowConfidence;

WindowConfidence worse(WindowConfidence a, WindowConfidence b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

/// Mark [from, to) with `conf` in a per-window map, keeping the worse flag
/// where one exists. One descent, then an ordered walk: existing marks are
/// upgraded in place and missing windows insert right before the walk
/// position, so each window costs amortized O(1), not a tree search.
void mark_run(std::map<WindowId, WindowConfidence>& marks, WindowId from,
              WindowId to, WindowConfidence conf) {
  auto it = marks.lower_bound(from);
  for (WindowId w = from; w < to; ++w) {
    if (it != marks.end() && it->first == w) {
      it->second = worse(it->second, conf);
      ++it;
    } else {
      marks.emplace_hint(it, w, conf);
    }
  }
}

/// Coalesce per-window marks into maximal same-confidence runs.
std::vector<ConfidenceRun> runs_from_marks(
    const std::map<WindowId, WindowConfidence>& marks) {
  std::vector<ConfidenceRun> runs;
  for (const auto& [w, conf] : marks) {
    if (!runs.empty() && runs.back().to == w && runs.back().conf == conf) {
      runs.back().to = w + 1;
    } else {
      runs.push_back(ConfidenceRun{w, w + 1, conf});
    }
  }
  return runs;
}

/// Sort one flow's scan-order (window, value) pairs by window and sum the
/// pairs of each window in place. The sort is stable and every sum starts
/// from 0.0 and adds in scan order — the same additions as
/// `std::map<WindowId, double>::operator[] +=`, so every double is
/// bit-identical to it. Records arrive sorted, so a segment written in
/// window order skips the sort.
void merge_windows(std::vector<std::pair<WindowId, double>>& windows) {
  const auto by_window = [](const std::pair<WindowId, double>& a,
                            const std::pair<WindowId, double>& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(windows.begin(), windows.end(), by_window)) {
    std::stable_sort(windows.begin(), windows.end(), by_window);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < windows.size();) {
    const WindowId w = windows[i].first;
    double sum = 0.0;
    for (; i < windows.size() && windows[i].first == w; ++i) {
      sum += windows[i].second;
    }
    windows[out++] = {w, sum};
  }
  windows.resize(out);
}

}  // namespace

struct Store::Instruments {
  explicit Instruments(telemetry::MetricRegistry& reg) {
    appends = reg.counter("umon_store_appends_total", {},
                          "Sparse curve records appended");
    append_bytes = reg.counter("umon_store_append_bytes_total", {},
                               "Encoded payload bytes appended");
    epochs_sealed = reg.counter("umon_store_epochs_sealed_total", {},
                                "Epoch seals made durable (fsync barriers)");
    segments_created = reg.counter("umon_store_segments_created_total", {},
                                   "Segment files created (all tiers)");
    segments_removed = reg.counter("umon_store_segments_removed_total", {},
                                   "Segment files unlinked after compaction");
    for (int t = 0; t < 3; ++t) {
      const std::string tier = std::to_string(t);
      tier_segments[t] = reg.gauge("umon_store_tier_segments",
                                   {{"tier", tier}},
                                   "Resident segment files in one tier");
      tier_bytes[t] = reg.gauge("umon_store_tier_bytes", {{"tier", tier}},
                                "Bytes resident in one tier");
      if (t > 0) {
        compactions[t] = reg.counter("umon_store_compactions_total",
                                     {{"to_tier", tier}},
                                     "Segments rewritten into a deeper tier");
      }
    }
    compaction_in = reg.counter("umon_store_compaction_input_bytes_total", {},
                                "Bytes read by the tier compactor");
    compaction_out = reg.counter("umon_store_compaction_output_bytes_total",
                                 {}, "Bytes written by the tier compactor");
    cache_hits = reg.counter("umon_store_cache_hits_total", {},
                             "Page cache hits");
    cache_misses = reg.counter("umon_store_cache_misses_total", {},
                               "Page cache misses (pread)");
    cache_evictions = reg.counter("umon_store_cache_evictions_total", {},
                                  "Clean pages evicted by the byte budget");
    cache_resident = reg.gauge("umon_store_cache_resident_pages", {},
                               "Pages resident in the cache");
    cache_dirty = reg.gauge("umon_store_cache_dirty_pages", {},
                            "Dirty (unsynced, unevictable) resident pages");
    last_sealed = reg.gauge("umon_store_last_sealed_epoch", {},
                            "Most recent durable epoch (-1 before the first)");
    compaction_lag = reg.gauge(
        "umon_store_compaction_lag_segments", {},
        "Sealed segments old enough for the next tier but not yet rewritten");
    seal_failures = reg.counter("umon_store_seal_failures_total", {},
                                "Epoch seals that failed on disk IO");
    scrub_passes = reg.counter("umon_store_scrub_passes_total", {},
                               "Completed scrub passes");
    scrub_records = reg.counter("umon_store_scrub_records_total", {},
                                "Records whose on-disk CRC re-verified clean");
    scrub_corrupt = reg.counter("umon_store_scrub_corrupt_total", {},
                                "Corrupt records found by scrub");
    quarantined = reg.counter("umon_store_chunks_quarantined_total", {},
                              "Corrupt chunks removed from the serving index");
    repaired = reg.counter("umon_store_chunks_repaired_total", {},
                           "Quarantined chunks replaced by a coarser shadow");
  }

  telemetry::Counter* appends = nullptr;
  telemetry::Counter* append_bytes = nullptr;
  telemetry::Counter* epochs_sealed = nullptr;
  telemetry::Counter* segments_created = nullptr;
  telemetry::Counter* segments_removed = nullptr;
  telemetry::Counter* compactions[3] = {nullptr, nullptr, nullptr};
  telemetry::Counter* compaction_in = nullptr;
  telemetry::Counter* compaction_out = nullptr;
  telemetry::Counter* cache_hits = nullptr;
  telemetry::Counter* cache_misses = nullptr;
  telemetry::Counter* cache_evictions = nullptr;
  telemetry::Gauge* tier_segments[3] = {nullptr, nullptr, nullptr};
  telemetry::Gauge* tier_bytes[3] = {nullptr, nullptr, nullptr};
  telemetry::Gauge* cache_resident = nullptr;
  telemetry::Gauge* cache_dirty = nullptr;
  telemetry::Gauge* last_sealed = nullptr;
  telemetry::Gauge* compaction_lag = nullptr;
  telemetry::Counter* seal_failures = nullptr;
  telemetry::Counter* scrub_passes = nullptr;
  telemetry::Counter* scrub_records = nullptr;
  telemetry::Counter* scrub_corrupt = nullptr;
  telemetry::Counter* quarantined = nullptr;
  telemetry::Counter* repaired = nullptr;
};

Store::Store(const StoreConfig& cfg, bool writable)
    : cfg_(cfg),
      writable_(writable),
      io_(cfg.io != nullptr ? cfg.io : &real_io()),
      cache_(PageCacheConfig{cfg.page_bytes, cfg.cache_budget_bytes, io_}),
      ins_(std::make_unique<Instruments>(registry_)) {}

Store::~Store() {
  std::lock_guard lock(mutex_);
  // umon-sca: allow(SA002) teardown path, runs once at destruction: the
  // final flush+fsync+close must be ordered after any in-flight append.
  if (active_ != nullptr) (void)active_->finish();
}

std::unique_ptr<Store> Store::open(const StoreConfig& cfg, RecoveryInfo* info,
                                   bool writable) {
  if (cfg.dir.empty()) return nullptr;
  if (::mkdir(cfg.dir.c_str(), 0755) != 0 && errno != EEXIST) return nullptr;
  std::unique_ptr<Store> store(new Store(cfg, writable));
  if (!store->recover(info)) return nullptr;
  return store;
}

bool Store::recover(RecoveryInfo* info) {
  RecoveryInfo local;
  RecoveryInfo& ri = info != nullptr ? *info : local;
  ri = RecoveryInfo{};

  DIR* dir = ::opendir(cfg_.dir.c_str());
  if (dir == nullptr) return false;
  struct Found {
    std::uint8_t tier = 0;
    std::string path;
  };
  std::map<std::uint32_t, Found> found;  // ordered: deterministic recovery
  while (const dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = cfg_.dir + "/" + name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Interrupted compaction output: the source still has the data.
      if (writable_ && io_->unlink(path.c_str()) == 0) ++ri.tmp_files_removed;
      continue;
    }
    std::uint32_t id = 0;
    std::uint8_t tier = 0;
    if (!parse_segment_file_name(name, id, tier)) continue;
    found[id] = Found{tier, path};
  }
  ::closedir(dir);

  // Phase 1: open + validate headers; resolve crashed compactions. A
  // renamed output whose source survived means the crash hit between
  // rename and unlink — the source must go or its records double-count.
  std::map<std::uint32_t, SegmentReader> readers;
  for (auto& [id, f] : found) {
    auto reader = SegmentReader::open(f.path, &cache_, id, writable_, io_);
    if (!reader.has_value() || reader->header().segment_id != id) {
      continue;  // unreadable header: leave the file for forensics
    }
    readers.emplace(id, std::move(*reader));
  }
  for (auto it = readers.begin(); it != readers.end();) {
    const std::uint32_t replaces = it->second.header().replaces_segment_id;
    if (replaces != kReplacesNone && readers.count(replaces) > 0) {
      auto victim = readers.find(replaces);
      victim->second.close();
      if (writable_ && io_->unlink(found[replaces].path.c_str()) == 0) {
        ++ri.stale_sources_unlinked;
      }
      readers.erase(victim);
      it = readers.begin();  // restart: erase may invalidate our position
    } else {
      ++it;
    }
  }

  // Phase 2: scan every surviving segment, truncate torn/unsealed tails,
  // rebuild the flow index and confidence marks.
  for (auto& [id, reader] : readers) {
    std::size_t records = 0;
    const std::uint32_t seg_id = id;
    const SegmentReader::ScanResult scan = reader.scan(
        [this, seg_id, &records](const RecordHeader& rh,
                                 std::uint64_t payload_offset,
                                 std::span<const std::uint8_t> payload) {
          index_record(seg_id, rh, payload_offset, payload, &records);
        });
    if (scan.sealed_end <= kSegmentHeaderBytes) {
      // No durable epoch: nothing in this file is trustworthy.
      reader.close();
      if (writable_ && io_->unlink(found[id].path.c_str()) == 0) {
        ++ri.empty_segments_removed;
      }
      continue;
    }
    if (writable_ && scan.sealed_end < reader.file_size()) {
      if (!reader.truncate_to(scan.sealed_end)) return false;
      ++ri.torn_tails_truncated;
    }
    ri.records_recovered += records;
    ++ri.segments_opened;
    Segment seg;
    seg.header = reader.header();
    seg.path = found[id].path;
    seg.bytes = scan.sealed_end;
    seg.max_epoch = scan.max_sealed_epoch.value_or(seg.header.base_epoch);
    if (!ri.last_sealed_epoch.has_value() ||
        *ri.last_sealed_epoch < *scan.max_sealed_epoch) {
      ri.last_sealed_epoch = scan.max_sealed_epoch;
    }
    seg.reader = std::move(reader);
    next_segment_id_ = std::max(next_segment_id_, id + 1);
    segments_.emplace(id, std::move(seg));
  }

  last_sealed_ = ri.last_sealed_epoch;
  epoch_ = last_sealed_.has_value() ? *last_sealed_ + 1 : 0;
  publish_gauges_locked();
  return true;
}

void Store::index_record(std::uint32_t segment_id, const RecordHeader& rh,
                         std::uint64_t payload_offset,
                         std::span<const std::uint8_t> payload,
                         std::size_t* records) {
  const auto kind = static_cast<RecordKind>(rh.kind);
  ChunkRef ref;
  ref.segment_id = segment_id;
  ref.payload_offset = payload_offset;
  ref.payload_len = rh.payload_len;
  ref.payload_crc = rh.payload_crc;
  ref.kind = kind;
  ref.confidence = static_cast<WindowConfidence>(rh.confidence);
  ref.epoch = rh.epoch;
  switch (kind) {
    case RecordKind::kSparseCurve: {
      const auto rec = decode_sparse(payload);
      if (!rec.has_value() || rec->windows.empty()) return;
      ref.w0 = rec->windows.front().first;
      ref.w1 = rec->windows.back().first;
      FlowEntry& entry = flows_[rec->flow.packed()];
      entry.key = rec->flow;
      entry.chunks.push_back(ref);
      if (records != nullptr) ++*records;
      break;
    }
    case RecordKind::kCoeffCurve: {
      const auto rec = decode_coeff(payload);
      if (!rec.has_value()) return;
      ref.w0 = rec->w0;
      ref.w1 = rec->w0 + rec->length - 1;
      FlowEntry& entry = flows_[rec->flow.packed()];
      entry.key = rec->flow;
      entry.chunks.push_back(ref);
      if (records != nullptr) ++*records;
      break;
    }
    case RecordKind::kConfidenceRun: {
      const auto runs = decode_confidence(payload);
      if (!runs.has_value()) return;
      for (const ConfidenceRun& run : *runs) {
        mark_run(marks_, run.from, run.to, run.conf);
      }
      if (records != nullptr) ++*records;
      break;
    }
    case RecordKind::kEpochSeal:
      break;
  }
}

void Store::ensure_writer() {
  if (active_ != nullptr || !writable_) return;
  const std::uint32_t id = next_segment_id_++;
  SegmentHeader header;
  header.tier = 0;
  header.window_shift = static_cast<std::uint8_t>(cfg_.window_shift);
  header.segment_id = id;
  header.base_epoch = epoch_;
  const std::string path = cfg_.dir + "/" + segment_file_name(id, 0);
  active_ = std::make_unique<SegmentWriter>(path, header, &cache_, id,
                                            cfg_.fsync_on_seal, io_);
  Segment seg;
  seg.header = active_->header();
  seg.path = path;
  seg.max_epoch = epoch_;
  segments_.emplace(id, std::move(seg));
  ++stats_.segments_created;
  ins_->segments_created->inc();
}

void Store::append_sparse(
    const FlowKey& flow,
    std::span<const std::pair<WindowId, double>> windows) {
  UMON_PROF_SCOPE(kStoreAppend);
  if (windows.empty()) return;
  std::lock_guard lock(mutex_);
  if (!writable_) return;
  ensure_writer();
  if (active_ == nullptr || !active_->ok()) return;

  SparseCurveRecord rec;
  rec.flow = flow;
  rec.windows.assign(windows.begin(), windows.end());
  const WindowConfidence worst = worst_mark(rec.windows);
  const SegmentWriter::AppendRef at =
      active_->append_sparse(epoch_, rec, worst);

  ChunkRef ref;
  ref.segment_id = active_->file_id();
  ref.payload_offset = at.payload_offset;
  ref.payload_len = at.payload_len;
  ref.payload_crc = at.payload_crc;
  ref.kind = RecordKind::kSparseCurve;
  ref.confidence = worst;
  ref.epoch = epoch_;
  ref.w0 = rec.windows.front().first;
  ref.w1 = rec.windows.back().first;
  FlowEntry& entry = flows_[flow.packed()];
  entry.key = flow;
  entry.chunks.push_back(ref);

  ++stats_.appends;
  stats_.append_bytes += at.payload_len;
  ins_->appends->inc();
  ins_->append_bytes->inc(at.payload_len);
  if (lineage_ != nullptr) lineage_->on_store_spill(1, at.payload_len);
}

WindowConfidence Store::worst_mark(
    std::span<const std::pair<WindowId, double>> windows) const {
  WindowConfidence worst = WindowConfidence::kCovered;
  // One descent, then walk the marks alongside the sorted windows.
  auto it = marks_.lower_bound(windows.front().first);
  for (const auto& [w, v] : windows) {
    while (it != marks_.end() && it->first < w) ++it;
    if (it == marks_.end()) break;
    if (it->first == w) worst = worse(worst, it->second);
  }
  return worst;
}

void Store::mark_confidence(WindowId from, WindowId to,
                            WindowConfidence conf) {
  std::lock_guard lock(mutex_);
  mark_confidence_locked(from, to, conf);
}

void Store::mark_confidence_locked(WindowId from, WindowId to,
                                   WindowConfidence conf) {
  if (conf == WindowConfidence::kCovered || from >= to) return;
  // A repeat inside the last run at no worse class would change no window
  // (each host's epoch marks the same windows).
  if (from < last_mark_.from || to > last_mark_.to ||
      worse(conf, last_mark_.conf) != last_mark_.conf) {
    mark_run(marks_, from, to, conf);
    last_mark_ = ConfidenceRun{from, to, conf};
  }
  if (writable_) pending_runs_.push_back(ConfidenceRun{from, to, conf});
}

bool Store::seal_epoch() {
  std::unique_lock lock(mutex_);
  if (!writable_) return false;
  if (active_ == nullptr && pending_runs_.empty()) {
    // Nothing happened this epoch: advance logically, nothing to make
    // durable. A crash forgets empty epochs, which loses no data.
    last_sealed_ = epoch_;
    ++epoch_;
    ++generation_;
    ins_->last_sealed->set(static_cast<std::int64_t>(*last_sealed_));
    return true;
  }
  ensure_writer();
  if (active_ == nullptr || !active_->ok()) return false;
  if (!pending_runs_.empty()) {
    active_->append_confidence(epoch_, pending_runs_);
    pending_runs_.clear();
  }
  // Split seal: stage the seal record and pwrite the tail under the lock
  // (cheap, must stay ordered with appends), then release the lock for the
  // fsync — the expensive durability stall — so concurrent write_through
  // appends and queries are not serialized behind the disk. seal_commit
  // only cleans page-cache pages fully below the synced extent, so pages
  // dirtied while we were unlocked stay dirty and cannot be evicted.
  //
  // umon-sca: allow(SA002) seal_prepare's pwrite is a buffered write into
  // the OS page cache and must stay under mutex_ to order the seal record
  // after every acknowledged append; the durability stall (fsync) runs
  // below with the lock released.
  if (!active_->seal_prepare(epoch_)) {
    // umon-sca: allow(SA002) seal-failure path (see fail_active_locked)
    fail_active_locked();
    return false;
  }
  SegmentWriter* writer = active_.get();
  lock.unlock();
  const bool synced = writer->seal_sync();
  lock.lock();
  if (!synced) {
    // Failed fsync: the kernel may have dropped dirty pages we will never
    // see again, so nothing past the previous durable seal can be trusted.
    // seal_commit is NOT called — mark_clean_up_to must never run for an
    // extent the disk did not acknowledge. Roll the writer off the damaged
    // file, reconcile the index with what actually survived on disk, and
    // flag the acknowledged-but-lost windows.
    // umon-sca: allow(SA002) seal-failure path (see fail_active_locked)
    if (active_.get() == writer) fail_active_locked();
    return false;
  }
  // Single-sealer: only the sealing thread resets active_ (roll below), so
  // `writer` is still the live writer here; re-check anyway for safety.
  if (active_.get() != writer) return false;
  writer->seal_commit();
  auto seg_it = segments_.find(active_->file_id());
  if (seg_it != segments_.end()) {
    seg_it->second.bytes = active_->bytes();
    seg_it->second.max_epoch = epoch_;
  }
  last_sealed_ = epoch_;
  ++epoch_;
  ++generation_;
  ++stats_.epochs_sealed;
  ins_->epochs_sealed->inc();
  ins_->last_sealed->set(static_cast<std::int64_t>(*last_sealed_));
  // umon-sca: allow(SA002) segment roll is once per cfg_.segment_epochs
  // seals and the writer's tail was flushed+fsynced by the seal above, so
  // finish()'s fsync inside the roll is an empty barrier, not a data flush.
  if (active_->epochs_sealed() >= cfg_.segment_epochs) roll_active_locked();
  publish_gauges_locked();
  return true;
}

void Store::roll_active_locked() {
  if (active_ == nullptr) return;
  const std::uint32_t id = active_->file_id();
  const std::string path = active_->path();
  const bool finished = active_->finish();
  active_.reset();
  if (!finished) {
    // The close-time flush/fsync failed: bytes past the last durable seal
    // may be gone. Fall back to the reconcile path instead of trusting the
    // in-memory index.
    ++stats_.seal_failures;
    ins_->seal_failures->inc();
    cache_.drop_file(id);
    reconcile_failed_segment_locked(id, path);
    return;
  }
  auto it = segments_.find(id);
  if (it == segments_.end()) return;
  auto reader = SegmentReader::open(path, &cache_, id, writable_, io_);
  if (reader.has_value()) {
    it->second.reader = std::move(*reader);
  } else {
    // The file we just wrote does not read back: disown it. Its chunks
    // would all fail decode anyway; drop them from the index.
    for (auto& [packed, entry] : flows_) {
      auto& chunks = entry.chunks;
      chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                  [id](const ChunkRef& c) {
                                    return c.segment_id == id;
                                  }),
                   chunks.end());
    }
    segments_.erase(it);
  }
}

void Store::fail_active_locked() {
  if (active_ == nullptr) return;
  const std::uint32_t id = active_->file_id();
  const std::string path = active_->path();
  ++stats_.seal_failures;
  ins_->seal_failures->inc();
  // finish() will not mark pages clean after its own flush/fsync fails, but
  // those dirty pages hold bytes whose on-disk fate is unknown — drop them
  // so every later read reflects the durable truth re-established below.
  //
  // umon-sca: allow(SA002) seal-failure path, at most once per failed seal:
  // the store is in a damaged state and must not serve reads until the
  // index matches the disk again, so the reconcile IO stays under mutex_.
  (void)active_->finish();
  active_.reset();
  cache_.drop_file(id);
  reconcile_failed_segment_locked(id, path);
}

void Store::reconcile_failed_segment_locked(std::uint32_t id,
                                            const std::string& path) {
  auto seg_it = segments_.find(id);
  // Probe the durable prefix: everything up to the last verified seal on
  // disk survived; everything after it is gone or untrustworthy.
  //
  // umon-sca: allow(SA002) failure path (see fail_active_locked).
  auto reader = SegmentReader::open(path, &cache_, id, writable_, io_);
  std::uint64_t sealed_end = 0;
  std::optional<std::uint32_t> durable_epoch;
  if (reader.has_value()) {
    const SegmentReader::ScanResult scan = reader->scan(nullptr);
    sealed_end = scan.sealed_end;
    durable_epoch = scan.max_sealed_epoch;
  }
  const bool keep = reader.has_value() && sealed_end > kSegmentHeaderBytes;

  // Drop index entries the durable prefix no longer backs and flag their
  // windows: they were acknowledged to the writer but the disk lost them.
  for (auto& [packed, entry] : flows_) {
    auto& chunks = entry.chunks;
    std::size_t kept = 0;
    for (ChunkRef& c : chunks) {
      const bool survives = keep && c.segment_id == id && durable_epoch &&
                            c.epoch <= *durable_epoch;
      if (c.segment_id != id || survives) {
        chunks[kept++] = c;
        continue;
      }
      mark_confidence_locked(c.w0, c.w1 + 1, WindowConfidence::kLost);
    }
    chunks.resize(kept);
  }

  if (keep) {
    if (sealed_end < reader->file_size()) (void)reader->truncate_to(sealed_end);
    Segment seg;
    seg.header = reader->header();
    seg.path = path;
    seg.bytes = sealed_end;
    seg.max_epoch = durable_epoch.value_or(reader->header().base_epoch);
    seg.reader = std::move(*reader);
    if (seg_it != segments_.end()) {
      seg_it->second = std::move(seg);
    } else {
      segments_.emplace(id, std::move(seg));
    }
  } else {
    if (reader.has_value()) reader->close();
    (void)io_->unlink(path.c_str());
    cache_.drop_file(id);
    if (seg_it != segments_.end()) {
      segments_.erase(seg_it);
      ++stats_.segments_removed;
      ins_->segments_removed->inc();
    }
  }
  ++generation_;
  publish_gauges_locked();
}

int Store::fd_for_segment(std::uint32_t segment_id) const {
  if (active_ != nullptr && active_->file_id() == segment_id) {
    return active_->fd();
  }
  const auto it = segments_.find(segment_id);
  if (it == segments_.end() || !it->second.reader.has_value()) return -1;
  return it->second.reader->fd();
}

std::size_t Store::maintain() {
  std::lock_guard lock(mutex_);
  if (!writable_ || cfg_.tier1_age_epochs == 0) return 0;
  swap_due_shadows_locked();
  // Segments entangled in a pending shadow pair sit out this round: the
  // source must not be compacted twice (two outputs naming the same
  // replaces_segment_id would double-count after a crash) and the shadow
  // itself is not authoritative yet.
  std::set<std::uint32_t> shadowed;
  for (const Shadow& sh : shadows_) {
    shadowed.insert(sh.source_id);
    shadowed.insert(sh.shadow_id);
  }
  std::vector<std::uint32_t> candidates;
  for (const auto& [id, seg] : segments_) {
    if (!seg.reader.has_value()) continue;  // active segment
    if (seg.header.tier >= 2) continue;
    if (shadowed.count(id) > 0) continue;
    if (seg.compaction_refused) continue;
    const std::uint32_t age =
        epoch_ > seg.max_epoch ? epoch_ - seg.max_epoch : 0;
    const std::uint32_t need = seg.header.tier == 0 ? cfg_.tier1_age_epochs
                                                    : cfg_.tier2_age_epochs;
    if (age >= need) candidates.push_back(id);
  }
  std::size_t done = 0;
  for (const std::uint32_t id : candidates) {
    // umon-sca: allow(SA002) compaction is a background maintenance pass
    // (caller-paced, never on the ingest path) that rewrites a sealed
    // segment; keeping it under mutex_ keeps the index swap atomic versus
    // queries, and the number of segments it touches per call is bounded.
    if (compact_segment_locked(id)) ++done;
  }
  publish_gauges_locked();
  return done;
}

bool Store::compact_segment_locked(std::uint32_t segment_id) {
  auto src_it = segments_.find(segment_id);
  if (src_it == segments_.end() || !src_it->second.reader.has_value()) {
    return false;
  }
  Segment& src = src_it->second;
  const std::uint8_t new_tier = src.header.tier + 1;
  const std::uint64_t input_bytes = src.bytes;

  // Gather the source's contents per flow. std::map keyed on the packed
  // flow keeps the output record order deterministic across runs.
  struct FlowAcc {
    FlowKey key;
    /// Tier-0 source: every (window, value) pair in scan order, one entry
    /// per record that wrote the window; merge_windows() sums them.
    std::vector<std::pair<WindowId, double>> windows;
    std::vector<CoeffCurveRecord> coeffs;  // tier-1 source
    WindowConfidence worst = WindowConfidence::kCovered;
  };
  std::map<std::uint64_t, FlowAcc> acc;
  std::map<WindowId, WindowConfidence> run_marks;
  bool decode_ok = true;
  std::size_t delivered = 0;
  const SegmentReader::ScanResult scan = src.reader->scan(
      [&](const RecordHeader& rh, std::uint64_t,
          std::span<const std::uint8_t> payload) {
        ++delivered;
        switch (static_cast<RecordKind>(rh.kind)) {
          case RecordKind::kSparseCurve: {
            const auto rec = decode_sparse(payload);
            if (!rec.has_value()) { decode_ok = false; return; }
            FlowAcc& fa = acc[rec->flow.packed()];
            fa.key = rec->flow;
            fa.windows.insert(fa.windows.end(), rec->windows.begin(),
                              rec->windows.end());
            fa.worst =
                worse(fa.worst, static_cast<WindowConfidence>(rh.confidence));
            break;
          }
          case RecordKind::kCoeffCurve: {
            auto rec = decode_coeff(payload);
            if (!rec.has_value()) { decode_ok = false; return; }
            FlowAcc& fa = acc[rec->flow.packed()];
            fa.key = rec->flow;
            fa.coeffs.push_back(std::move(*rec));
            fa.worst =
                worse(fa.worst, static_cast<WindowConfidence>(rh.confidence));
            break;
          }
          case RecordKind::kConfidenceRun: {
            const auto runs = decode_confidence(payload);
            if (!runs.has_value()) { decode_ok = false; return; }
            for (const ConfidenceRun& run : *runs) {
              mark_run(run_marks, run.from, run.to, run.conf);
            }
            break;
          }
          case RecordKind::kEpochSeal:
            break;
        }
      });
  if (!decode_ok || scan.sealed_end < src.bytes ||
      delivered < scan.sealed_records) {
    // A bad frame (rot on disk) stopped the scan short of the sealed bytes.
    // The records past it would never reach the output, yet the index swap
    // drops every chunk of the source: those windows would vanish without
    // a kLost mark. Leave the segment exact and serving; scrub is the path
    // that quarantines the rot. The verdict cannot change, so later passes
    // skip the segment instead of rescanning it.
    src.compaction_refused = true;
    return false;
  }

  const std::uint32_t new_id = next_segment_id_++;
  SegmentHeader header;
  header.tier = new_tier;
  header.window_shift = src.header.window_shift;
  header.segment_id = new_id;
  header.base_epoch = src.header.base_epoch;
  header.replaces_segment_id = segment_id;
  const std::string final_path =
      cfg_.dir + "/" + segment_file_name(new_id, new_tier);
  const std::string tmp_path = final_path + ".tmp";
  SegmentWriter writer(tmp_path, header, &cache_, new_id, cfg_.fsync_on_seal,
                       io_);
  if (!writer.ok()) return false;

  const std::uint32_t out_epoch = src.max_epoch;
  std::unordered_map<std::uint64_t, std::vector<ChunkRef>> new_chunks;
  std::vector<double> dense;
  for (auto& [packed, fa] : acc) {
    std::vector<ChunkRef>& fresh = new_chunks[packed];
    auto emit = [&](const CoeffCurveRecord& rec) {
      const SegmentWriter::AppendRef at =
          writer.append_coeff(out_epoch, rec, fa.worst);
      ChunkRef ref;
      ref.segment_id = new_id;
      ref.payload_offset = at.payload_offset;
      ref.payload_len = at.payload_len;
      ref.payload_crc = at.payload_crc;
      ref.kind = RecordKind::kCoeffCurve;
      ref.confidence = fa.worst;
      ref.epoch = out_epoch;
      ref.w0 = rec.w0;
      ref.w1 = rec.w0 + rec.length - 1;
      fresh.push_back(ref);
    };
    if (src.header.tier == 0) {
      // Split the flow's windows into chunks aligned on absolute window
      // boundaries (stable across compactions), densify, transform.
      merge_windows(fa.windows);
      const auto& wins = fa.windows;
      const WindowId stride = static_cast<WindowId>(cfg_.max_chunk_windows);
      std::size_t i = 0;
      while (i < wins.size()) {
        const WindowId base = (wins[i].first / stride) * stride;
        std::size_t j = i;
        while (j < wins.size() && wins[j].first < base + stride) ++j;
        const WindowId first = wins[i].first;
        const WindowId last = wins[j - 1].first;
        const std::uint64_t chunk_source = sparse_payload_bytes(j - i);
        // Densify a power-of-two span aligned inside the stride chunk. The
        // forward transform pads to pow2 anyway; if the record's length were
        // shorter, the energy a truncated detail set leaks into the padding
        // would be cut off at reconstruction — total volume must survive
        // tiering exactly (only its distribution is approximate). Growing
        // the aligned span caps at the stride, so chunks never overlap.
        WindowId padded = static_cast<WindowId>(
            wavelet::next_pow2(static_cast<std::uint32_t>(last - first + 1)));
        WindowId w0 = base + ((first - base) / padded) * padded;
        while (last >= w0 + padded) {
          padded *= 2;
          w0 = base + ((first - base) / padded) * padded;
        }
        dense.assign(static_cast<std::size_t>(padded), 0.0);
        for (std::size_t k = i; k < j; ++k) {
          dense[static_cast<std::size_t>(wins[k].first - w0)] = wins[k].second;
        }
        TierParams params;
        params.budget_coeffs = std::max<std::size_t>(1, cfg_.tier_budget / 2);
        params.max_payload_bytes = static_cast<std::size_t>(chunk_source / 2);
        emit(tier_from_dense(fa.key, w0, dense, params));
        i = j;
      }
    } else {
      for (const CoeffCurveRecord& rec : fa.coeffs) {
        TierParams params;
        params.budget_coeffs = std::max<std::size_t>(
            1, cfg_.tier_budget >> (new_tier));
        const std::uint64_t source =
            coeff_payload_bytes(rec.approx.size(), rec.details.size());
        params.max_payload_bytes = static_cast<std::size_t>(source / 2);
        emit(truncate_coeffs(rec, params));
      }
    }
  }
  if (!run_marks.empty()) {
    const std::vector<ConfidenceRun> runs = runs_from_marks(run_marks);
    writer.append_confidence(out_epoch, runs);
  }
  if (!writer.seal_epoch(out_epoch) || !writer.finish()) {
    (void)io_->unlink(tmp_path.c_str());
    cache_.drop_file(new_id);
    return false;
  }
  const std::uint64_t out_bytes = writer.bytes();

  // Commit point: after the rename the new segment is authoritative (its
  // header names the source via replaces_segment_id, so a crash before the
  // unlink is healed at the next open).
  if (io_->rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    (void)io_->unlink(tmp_path.c_str());
    cache_.drop_file(new_id);
    return false;
  }
  auto reader = SegmentReader::open(final_path, &cache_, new_id, writable_,
                                    io_);
  if (!reader.has_value()) {
    // The renamed output does not read back (IO loss): disown it and keep
    // the source authoritative. Leaving it on disk would let the next
    // maintain() compact the source again, producing two survivors that
    // both replace the same segment id — recovery would keep both and
    // double-count every record.
    (void)io_->unlink(final_path.c_str());
    cache_.drop_file(new_id);
    return false;
  }

  Segment out;
  out.header = reader->header();
  out.path = final_path;
  out.bytes = out_bytes;
  out.max_epoch = out_epoch;
  out.reader = std::move(*reader);

  if (cfg_.repair_grace_epochs > 0) {
    // Read-repair grace: the exact source keeps serving (and stays on
    // disk); the coarse output waits in the wings. A crash in this window
    // is safe — recovery sees replaces_segment_id and keeps exactly one of
    // the pair (the coarse copy).
    segments_.emplace(new_id, std::move(out));
    Shadow sh;
    sh.source_id = segment_id;
    sh.shadow_id = new_id;
    sh.swap_epoch = epoch_ + cfg_.repair_grace_epochs;
    sh.chunks = std::move(new_chunks);
    shadows_.push_back(std::move(sh));
  } else {
    // Swap the index over, then unlink the source. The scan delivered every
    // sealed record, so only the flows it found can hold source chunks.
    for (const auto& [packed, fresh] : new_chunks) {
      const auto fit = flows_.find(packed);
      if (fit == flows_.end()) continue;
      auto& chunks = fit->second.chunks;
      std::erase_if(chunks, [segment_id](const ChunkRef& c) {
        return c.segment_id == segment_id;
      });
      chunks.insert(chunks.end(), fresh.begin(), fresh.end());
    }
    remove_segment_locked(segment_id);
    segments_.emplace(new_id, std::move(out));
  }
  ++generation_;

  ++stats_.segments_created;
  stats_.compaction_input_bytes += input_bytes;
  stats_.compaction_output_bytes += out_bytes;
  ins_->segments_created->inc();
  ins_->compaction_in->inc(input_bytes);
  ins_->compaction_out->inc(out_bytes);
  if (new_tier == 1) {
    ++stats_.compactions_tier1;
  } else {
    ++stats_.compactions_tier2;
  }
  if (ins_->compactions[new_tier] != nullptr) {
    ins_->compactions[new_tier]->inc();
  }
  return true;
}

void Store::remove_segment_locked(std::uint32_t segment_id) {
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return;
  if (it->second.reader.has_value()) it->second.reader->close();
  (void)io_->unlink(it->second.path.c_str());
  cache_.drop_file(segment_id);
  segments_.erase(it);
  ++stats_.segments_removed;
  ins_->segments_removed->inc();
}

void Store::swap_due_shadows_locked() {
  for (std::size_t i = 0; i < shadows_.size();) {
    if (epoch_ < shadows_[i].swap_epoch) {
      ++i;
      continue;
    }
    const Shadow sh = std::move(shadows_[i]);
    shadows_.erase(shadows_.begin() + static_cast<std::ptrdiff_t>(i));
    // Grace expired: the coarse copy becomes authoritative. Chunks promoted
    // early (read-repair) are already in the index — skip them.
    for (auto& [packed, entry] : flows_) {
      auto& chunks = entry.chunks;
      chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                  [&sh](const ChunkRef& c) {
                                    return c.segment_id == sh.source_id;
                                  }),
                   chunks.end());
    }
    for (const auto& [packed, fresh] : sh.chunks) {
      auto fit = flows_.find(packed);
      if (fit == flows_.end()) continue;
      auto& chunks = fit->second.chunks;
      for (const ChunkRef& ref : fresh) {
        const bool present = std::any_of(
            chunks.begin(), chunks.end(), [&ref](const ChunkRef& c) {
              return c.segment_id == ref.segment_id &&
                     c.payload_offset == ref.payload_offset;
            });
        if (!present) chunks.push_back(ref);
      }
    }
    // umon-sca: allow(SA002) background maintenance, bounded per call (see
    // maintain): unlinking the expired source keeps the swap atomic versus
    // queries.
    remove_segment_locked(sh.source_id);
    ++generation_;
  }
}

void Store::quarantine_chunks_locked(std::uint64_t packed,
                                     const std::vector<ChunkRef>& bad,
                                     std::size_t* repaired,
                                     std::uint64_t* windows_lost) {
  auto fit = flows_.find(packed);
  if (fit == flows_.end()) return;
  auto& chunks = fit->second.chunks;
  auto same_chunk = [](const ChunkRef& a, const ChunkRef& b) {
    return a.segment_id == b.segment_id &&
           a.payload_offset == b.payload_offset;
  };
  for (const ChunkRef& b : bad) {
    const bool present = std::any_of(
        chunks.begin(), chunks.end(),
        [&](const ChunkRef& c) { return same_chunk(c, b); });
    if (!present) continue;  // an earlier repair already replaced it
    ++stats_.chunks_quarantined;
    ins_->quarantined->inc();

    // Read-repair: a still-live shadow of this segment may hold a coarser
    // copy of the same windows. Promote every covering shadow chunk; each
    // promotion replaces ALL of the flow's source chunks it overlaps (the
    // coarse chunk re-aggregates them — serving both would double-count
    // the volume).
    bool repaired_this = false;
    for (Shadow& sh : shadows_) {
      if (sh.source_id != b.segment_id) continue;
      const auto scit = sh.chunks.find(packed);
      if (scit == sh.chunks.end()) break;
      std::vector<std::uint8_t> buf;
      for (const ChunkRef& sc : scit->second) {
        if (sc.w1 < b.w0 || sc.w0 > b.w1) continue;
        // Trust the shadow bytes only after their own CRC verifies — the
        // rot could have hit both copies.
        buf.resize(sc.payload_len);
        const int fd = fd_for_segment(sc.segment_id);
        if (!cache_.read(sc.segment_id, fd, sc.payload_offset,
                         std::span<std::uint8_t>(buf)) ||
            resilience::crc32c(buf.data(), buf.size()) != sc.payload_crc) {
          continue;
        }
        chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                    [&](const ChunkRef& c) {
                                      return c.segment_id == b.segment_id &&
                                             c.w1 >= sc.w0 && c.w0 <= sc.w1;
                                    }),
                     chunks.end());
        const bool already = std::any_of(
            chunks.begin(), chunks.end(),
            [&](const ChunkRef& c) { return same_chunk(c, sc); });
        if (!already) {
          ChunkRef promoted = sc;
          promoted.confidence =
              worse(promoted.confidence, WindowConfidence::kGapFilled);
          chunks.push_back(promoted);
        }
        mark_confidence_locked(sc.w0, sc.w1 + 1,
                               WindowConfidence::kGapFilled);
        repaired_this = true;
      }
      break;
    }
    if (repaired_this) {
      ++stats_.chunks_repaired;
      ins_->repaired->inc();
      if (repaired != nullptr) ++*repaired;
    } else {
      chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                  [&](const ChunkRef& c) {
                                    return same_chunk(c, b);
                                  }),
                   chunks.end());
      mark_confidence_locked(b.w0, b.w1 + 1, WindowConfidence::kLost);
      if (windows_lost != nullptr) {
        *windows_lost += static_cast<std::uint64_t>(b.w1 - b.w0 + 1);
      }
    }
  }
}

void Store::publish_gauges_locked() {
  TierUsage usage[3];
  for (const auto& [id, seg] : segments_) {
    const std::uint8_t tier = std::min<std::uint8_t>(seg.header.tier, 2);
    ++usage[tier].segments;
    usage[tier].bytes += (active_ != nullptr && active_->file_id() == id)
                             ? active_->bytes()
                             : seg.bytes;
  }
  std::size_t lag = 0;
  if (cfg_.tier1_age_epochs > 0) {
    for (const auto& [id, seg] : segments_) {
      if (!seg.reader.has_value() || seg.header.tier >= 2) continue;
      const std::uint32_t age =
          epoch_ > seg.max_epoch ? epoch_ - seg.max_epoch : 0;
      const std::uint32_t need = seg.header.tier == 0 ? cfg_.tier1_age_epochs
                                                      : cfg_.tier2_age_epochs;
      if (age >= need) ++lag;
    }
  }
  for (int t = 0; t < 3; ++t) {
    stats_.tiers[t] = usage[t];
    ins_->tier_segments[t]->set(static_cast<std::int64_t>(usage[t].segments));
    ins_->tier_bytes[t]->set(static_cast<std::int64_t>(usage[t].bytes));
  }
  ins_->compaction_lag->set(static_cast<std::int64_t>(lag));

  const PageCacheStats cs = cache_.stats();
  ins_->cache_hits->inc(cs.hits - cache_published_.hits);
  ins_->cache_misses->inc(cs.misses - cache_published_.misses);
  ins_->cache_evictions->inc(cs.evictions - cache_published_.evictions);
  ins_->cache_resident->set(static_cast<std::int64_t>(cs.resident_pages));
  ins_->cache_dirty->set(static_cast<std::int64_t>(cs.dirty_pages));
  cache_published_ = cs;
}

void Store::visit_flow(const FlowKey& flow, WindowId from, WindowId to,
                       const std::function<void(const ChunkView&)>& fn) {
  std::lock_guard lock(mutex_);
  const auto it = flows_.find(flow.packed());
  if (it == flows_.end()) return;

  // Deliver tier-0 (exact) chunks first, then deeper tiers, each in append
  // order, so consumers see the most precise data before approximations.
  std::vector<const ChunkRef*> order;
  order.reserve(it->second.chunks.size());
  for (const ChunkRef& c : it->second.chunks) {
    if (c.w1 < from || c.w0 >= to) continue;
    order.push_back(&c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](const ChunkRef* a, const ChunkRef* b) {
                     const auto ta = segments_.find(a->segment_id);
                     const auto tb = segments_.find(b->segment_id);
                     const std::uint8_t tier_a =
                         ta == segments_.end() ? 0 : ta->second.header.tier;
                     const std::uint8_t tier_b =
                         tb == segments_.end() ? 0 : tb->second.header.tier;
                     return tier_a < tier_b;
                   });

  std::vector<std::uint8_t> buf;
  std::vector<ChunkRef> bad;
  for (const ChunkRef* c : order) {
    const int fd = fd_for_segment(c->segment_id);
    buf.resize(c->payload_len);
    if (!cache_.read(c->segment_id, fd, c->payload_offset,
                     std::span<std::uint8_t>(buf))) {
      continue;
    }
    // Never serve a byte that fails its frame CRC: rot that crept onto the
    // disk since the seal (and past the cache) is quarantined, not
    // returned.
    if (resilience::crc32c(buf.data(), buf.size()) != c->payload_crc) {
      bad.push_back(*c);
      continue;
    }
    const auto seg = segments_.find(c->segment_id);
    ChunkView view;
    view.tier = seg == segments_.end() ? 0 : seg->second.header.tier;
    view.kind = c->kind;
    view.confidence = c->confidence;
    if (c->kind == RecordKind::kSparseCurve) {
      const auto rec = decode_sparse(buf);
      if (!rec.has_value()) continue;
      view.sparse = &*rec;
      fn(view);
    } else if (c->kind == RecordKind::kCoeffCurve) {
      const auto rec = decode_coeff(buf);
      if (!rec.has_value()) continue;
      view.coeff = &*rec;
      fn(view);
    }
  }
  if (!bad.empty()) {
    // Quarantine inline: the offending read already skipped the bytes;
    // removing the chunks (and promoting any surviving shadow copies)
    // makes the next query see the repaired view, and the generation bump
    // invalidates every cached response assembled before the rot surfaced.
    quarantine_chunks_locked(flow.packed(), bad, nullptr, nullptr);
    ++generation_;
  }
}

std::vector<Store::ScrubTarget> Store::scrub_snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<ScrubTarget> targets;
  for (const auto& [id, seg] : segments_) {
    if (!seg.reader.has_value()) continue;  // active writer: tail unsealed
    targets.push_back(ScrubTarget{id, seg.header.tier, seg.path, seg.bytes});
  }
  return targets;
}

void Store::scrub_commit(const std::vector<ScrubDamage>& damaged,
                         ScrubReport* report) {
  std::lock_guard lock(mutex_);
  bool changed = false;
  for (const ScrubDamage& d : damaged) {
    const auto sit = segments_.find(d.target.id);
    if (sit == segments_.end() || !sit->second.reader.has_value() ||
        sit->second.path != d.target.path ||
        sit->second.bytes != d.target.bytes) {
      continue;  // compacted or rewritten since the snapshot: findings stale
    }
    for (const auto& [off, len] : d.ranges) {
      ScrubFinding finding;
      finding.segment_id = d.target.id;
      finding.tier = d.target.tier;
      finding.offset = off;
      finding.length = len;
      const std::uint64_t q_before = stats_.chunks_quarantined;
      const std::uint64_t r_before = stats_.chunks_repaired;
      for (auto& [packed, entry] : flows_) {
        std::vector<ChunkRef> bad;
        for (const ChunkRef& c : entry.chunks) {
          if (c.segment_id != d.target.id) continue;
          const std::uint64_t frame_begin =
              c.payload_offset - kRecordHeaderBytes;
          const std::uint64_t frame_end = c.payload_offset + c.payload_len;
          if (frame_end <= off || frame_begin >= off + len) continue;
          bad.push_back(c);
        }
        if (!bad.empty()) {
          std::size_t repaired = 0;
          quarantine_chunks_locked(packed, bad, &repaired,
                                   &report->windows_lost);
        }
      }
      finding.chunks_quarantined =
          static_cast<std::size_t>(stats_.chunks_quarantined - q_before);
      finding.chunks_repaired =
          static_cast<std::size_t>(stats_.chunks_repaired - r_before);
      report->chunks_quarantined += finding.chunks_quarantined;
      report->chunks_repaired += finding.chunks_repaired;
      if (finding.chunks_quarantined > 0 || finding.chunks_repaired > 0) {
        changed = true;
      }
      report->findings.push_back(finding);
    }
  }
  ++stats_.scrub_passes;
  stats_.scrub_corrupt_records += report->corrupt_records;
  ins_->scrub_passes->inc();
  ins_->scrub_records->inc(report->records_verified);
  ins_->scrub_corrupt->inc(report->corrupt_records);
  if (changed) ++generation_;
  publish_gauges_locked();
}

ScrubReport Store::scrub() {
  ScrubReport report;
  const std::vector<ScrubTarget> targets = scrub_snapshot();

  // Raw CRC walk, no store lock held: scrub competes with queries and the
  // writer for disk bandwidth only, never for the index. The walk reads
  // through its own fd — NOT the page cache — because the cache may still
  // hold the good pre-rot copy of a page and would mask on-disk damage.
  std::vector<ScrubDamage> damaged;
  std::vector<std::uint8_t> buf;
  for (const ScrubTarget& t : targets) {
    const int fd = io_->open(t.path.c_str(), O_RDONLY | O_CLOEXEC, 0);
    if (fd < 0) continue;  // compacted away since the snapshot
    ++report.segments_scanned;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    std::uint64_t pos = kSegmentHeaderBytes;
    while (pos + kRecordHeaderBytes <= t.bytes) {
      std::uint8_t raw[kRecordHeaderBytes];
      RecordHeader rh;
      if (io_->pread(fd, raw, sizeof(raw), static_cast<off_t>(pos)) !=
              static_cast<ssize_t>(sizeof(raw)) ||
          !decode_record_header(
              std::span<const std::uint8_t>(raw, sizeof(raw)), rh) ||
          !valid_record_kind(rh.kind) ||
          rh.payload_len > kMaxRecordPayload ||
          pos + kRecordHeaderBytes + rh.payload_len > t.bytes) {
        // The framing itself is destroyed: record lengths chain, so
        // nothing at or past this offset can be walked — treat the whole
        // tail as corrupt.
        ranges.emplace_back(pos, t.bytes - pos);
        ++report.corrupt_records;
        break;
      }
      buf.resize(rh.payload_len);
      bool ok = true;
      if (rh.payload_len > 0 &&
          io_->pread(fd, buf.data(), rh.payload_len,
                     static_cast<off_t>(pos + kRecordHeaderBytes)) !=
              static_cast<ssize_t>(rh.payload_len)) {
        ok = false;
      }
      if (ok &&
          resilience::crc32c(buf.data(), buf.size()) != rh.payload_crc) {
        ok = false;
      }
      if (ok) {
        ++report.records_verified;
      } else {
        ranges.emplace_back(pos, kRecordHeaderBytes + rh.payload_len);
        ++report.corrupt_records;
      }
      pos += kRecordHeaderBytes + rh.payload_len;
    }
    report.bytes_scanned += t.bytes;
    io_->close(fd);
    if (!ranges.empty()) {
      damaged.push_back(ScrubDamage{t, std::move(ranges)});
    }
  }

  scrub_commit(damaged, &report);
  return report;
}

std::vector<FlowKey> Store::flows() const {
  std::lock_guard lock(mutex_);
  std::vector<FlowKey> out;
  out.reserve(flows_.size());
  for (const auto& [packed, entry] : flows_) out.push_back(entry.key);
  std::sort(out.begin(), out.end(), [](const FlowKey& a, const FlowKey& b) {
    return a.packed() < b.packed();
  });
  return out;
}

bool Store::window_extent(WindowId& first, WindowId& last) const {
  std::lock_guard lock(mutex_);
  bool any = false;
  auto widen = [&](WindowId lo, WindowId hi) {
    if (!any) {
      first = lo;
      last = hi;
      any = true;
    } else {
      first = std::min(first, lo);
      last = std::max(last, hi);
    }
  };
  for (const auto& [packed, entry] : flows_) {
    for (const ChunkRef& c : entry.chunks) widen(c.w0, c.w1);
  }
  if (!marks_.empty()) {
    widen(marks_.begin()->first, std::prev(marks_.end())->first);
  }
  return any;
}

bool Store::flow_extent(const FlowKey& flow, WindowId& first,
                        WindowId& last) const {
  std::lock_guard lock(mutex_);
  const auto it = flows_.find(flow.packed());
  if (it == flows_.end() || it->second.chunks.empty()) return false;
  first = it->second.chunks.front().w0;
  last = it->second.chunks.front().w1;
  for (const ChunkRef& c : it->second.chunks) {
    first = std::min(first, c.w0);
    last = std::max(last, c.w1);
  }
  return true;
}

analyzer::WindowConfidence Store::worst_confidence(WindowId from,
                                                   WindowId to) const {
  std::lock_guard lock(mutex_);
  WindowConfidence worst = WindowConfidence::kCovered;
  for (auto it = marks_.lower_bound(from); it != marks_.end() && it->first < to;
       ++it) {
    worst = worse(worst, it->second);
  }
  return worst;
}

std::uint64_t Store::generation() const {
  std::lock_guard lock(mutex_);
  return generation_;
}

std::uint32_t Store::current_epoch() const {
  std::lock_guard lock(mutex_);
  return epoch_;
}

std::optional<std::uint32_t> Store::last_sealed_epoch() const {
  std::lock_guard lock(mutex_);
  return last_sealed_;
}

StoreStats Store::stats() const {
  std::lock_guard lock(mutex_);
  StoreStats s = stats_;
  TierUsage usage[3];
  for (const auto& [id, seg] : segments_) {
    const std::uint8_t tier = std::min<std::uint8_t>(seg.header.tier, 2);
    ++usage[tier].segments;
    usage[tier].bytes += (active_ != nullptr && active_->file_id() == id)
                             ? active_->bytes()
                             : seg.bytes;
  }
  for (int t = 0; t < 3; ++t) s.tiers[t] = usage[t];
  s.cache = cache_.stats();
  return s;
}

}  // namespace umon::store
