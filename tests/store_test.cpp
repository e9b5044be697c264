// umon::store tests: record codecs, segment round-trip and torn-tail
// recovery, page cache states, the write-through round-trip property
// against the in-RAM FlowCurveStore, tier byte-ratio/NMSE bounds, the
// compactor's equivalence to its full-sort/std::map predecessor (selection,
// segment bytes, confidence runs), query grouping + cache invalidation, and
// the crash-recovery truncation sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "common/stats.hpp"
#include "resilience/fault_plan.hpp"
#include "store/io.hpp"
#include "store/page_cache.hpp"
#include "store/query.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"
#include "store/tier.hpp"
#include "wavelet/coeff.hpp"
#include "wavelet/haar.hpp"
#include "wavelet/reconstruct.hpp"

namespace umon::store {

/// Full scans of the raw chunk index: the code Store::flows() and
/// Store::window_extent() ran before they read maintained state. Store
/// befriends this struct so the equivalence test below can check the
/// maintained views against it.
struct StoreIndexAudit {
  static std::vector<FlowKey> flows(const Store& st) {
    std::lock_guard lock(st.mutex_);
    std::vector<FlowKey> out;
    out.reserve(st.flows_.size());
    for (const auto& [packed, entry] : st.flows_) out.push_back(entry.key);
    std::sort(out.begin(), out.end(), [](const FlowKey& a, const FlowKey& b) {
      return a.packed() < b.packed();
    });
    return out;
  }

  static bool window_extent(const Store& st, WindowId& first, WindowId& last) {
    std::lock_guard lock(st.mutex_);
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
    for (const auto& [packed, entry] : st.flows_) {
      for (const auto& c : entry.chunks) widen(c.w0, c.w1);
    }
    if (!st.marks_.empty()) {
      widen(st.marks_.begin()->first, std::prev(st.marks_.end())->first);
    }
    return any;
  }
};

namespace {

using analyzer::WindowConfidence;
using resilience::FaultPlan;

/// Self-cleaning scratch directory under the build tree.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "./store_test_%s_%d", tag.c_str(),
                  static_cast<int>(::getpid()));
    path = buf;
    remove_all();
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() { remove_all(); }
  void remove_all() const {
    DIR* d = ::opendir(path.c_str());
    if (d != nullptr) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

FlowKey make_flow(std::uint32_t i) {
  return FlowKey{10u * 65536u + i, 20u * 65536u + (i % 7),
                 static_cast<std::uint16_t>(1000 + i),
                 static_cast<std::uint16_t>(80), 6};
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

// --- payload codecs ---------------------------------------------------------

TEST(StoreFormat, SparseCodecRoundTrip) {
  SparseCurveRecord rec;
  rec.flow = make_flow(3);
  rec.windows = {{100, 1.5}, {101, 0.25}, {107, 12345.0}};
  std::vector<std::uint8_t> buf;
  encode_sparse(rec, buf);
  EXPECT_EQ(buf.size(), sparse_payload_bytes(rec.windows.size()));

  const auto back = decode_sparse(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->flow, rec.flow);
  EXPECT_EQ(back->windows, rec.windows);

  // Trailing garbage must be rejected, not silently ignored.
  buf.push_back(0xAB);
  EXPECT_FALSE(decode_sparse(buf).has_value());
  buf.pop_back();
  buf.pop_back();
  EXPECT_FALSE(decode_sparse(buf).has_value());
}

TEST(StoreFormat, CoeffCodecRoundTrip) {
  CoeffCurveRecord rec;
  rec.flow = make_flow(9);
  rec.w0 = 4096;
  rec.length = 64;
  rec.levels = 6;
  rec.approx = {120000};
  rec.details = {{5, 0, 800}, {4, 1, -300}, {0, 17, 42}};
  std::vector<std::uint8_t> buf;
  encode_coeff(rec, buf);
  EXPECT_EQ(buf.size(),
            coeff_payload_bytes(rec.approx.size(), rec.details.size()));

  const auto back = decode_coeff(buf);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->flow, rec.flow);
  EXPECT_EQ(back->w0, rec.w0);
  EXPECT_EQ(back->length, rec.length);
  EXPECT_EQ(back->levels, rec.levels);
  EXPECT_EQ(back->approx, rec.approx);
  ASSERT_EQ(back->details.size(), rec.details.size());
  for (std::size_t i = 0; i < rec.details.size(); ++i) {
    EXPECT_EQ(back->details[i].level, rec.details[i].level);
    EXPECT_EQ(back->details[i].index, rec.details[i].index);
    EXPECT_EQ(back->details[i].value, rec.details[i].value);
  }
}

TEST(StoreFormat, ConfidenceCodecRoundTrip) {
  const std::vector<ConfidenceRun> runs = {
      {10, 20, WindowConfidence::kLost},
      {25, 26, WindowConfidence::kRetransmitted}};
  std::vector<std::uint8_t> buf;
  encode_confidence(runs, buf);
  const auto back = decode_confidence(buf);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].from, 10);
  EXPECT_EQ((*back)[0].to, 20);
  EXPECT_EQ((*back)[0].conf, WindowConfidence::kLost);
  EXPECT_EQ((*back)[1].conf, WindowConfidence::kRetransmitted);
}

// --- segment writer/reader --------------------------------------------------

TEST(StoreSegment, WriterReaderRoundTrip) {
  TempDir dir("segment");
  PageCache cache;
  SegmentHeader hdr;  // writer computes header_crc at first flush
  hdr.segment_id = 1;
  hdr.base_epoch = 1;
  const std::string path = dir.path + "/" + segment_file_name(1, 0);
  SegmentWriter w(path, hdr, &cache, /*file_id=*/1);
  ASSERT_TRUE(w.ok());

  SparseCurveRecord s;
  s.flow = make_flow(1);
  s.windows = {{10, 100.0}, {11, 200.0}};
  w.append_sparse(1, s, WindowConfidence::kCovered);
  ASSERT_TRUE(w.seal_epoch(1));

  CoeffCurveRecord c;
  c.flow = make_flow(2);
  c.w0 = 0;
  c.length = 8;
  c.levels = 3;
  c.approx = {800};
  c.details = {{2, 0, 400}};
  w.append_coeff(2, c, WindowConfidence::kRetransmitted);
  ASSERT_TRUE(w.seal_epoch(2));
  EXPECT_EQ(w.epochs_sealed(), 2u);
  EXPECT_TRUE(w.finish());

  auto r = SegmentReader::open(path, &cache, 1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header().segment_id, 1u);
  EXPECT_EQ(r->header().tier, 0u);

  std::size_t sparse_seen = 0, coeff_seen = 0;
  const auto res = r->scan([&](const RecordHeader& rh, std::uint64_t,
                               std::span<const std::uint8_t> payload) {
    if (rh.kind == static_cast<std::uint8_t>(RecordKind::kSparseCurve)) {
      ++sparse_seen;
      const auto rec = decode_sparse(payload);
      ASSERT_TRUE(rec.has_value());
      EXPECT_EQ(rec->windows, s.windows);
    } else if (rh.kind == static_cast<std::uint8_t>(RecordKind::kCoeffCurve)) {
      ++coeff_seen;
      EXPECT_EQ(rh.confidence,
                static_cast<std::uint8_t>(WindowConfidence::kRetransmitted));
    }
  });
  EXPECT_FALSE(res.torn);
  EXPECT_EQ(res.valid_end, res.sealed_end);
  ASSERT_TRUE(res.max_sealed_epoch.has_value());
  EXPECT_EQ(*res.max_sealed_epoch, 2u);
  EXPECT_EQ(sparse_seen, 1u);
  EXPECT_EQ(coeff_seen, 1u);
}

TEST(StoreSegment, UnsealedTailIsNotDelivered) {
  TempDir dir("unsealed");
  PageCache cache;
  SegmentHeader hdr;
  hdr.segment_id = 7;
  hdr.base_epoch = 1;
  const std::string path = dir.path + "/" + segment_file_name(7, 0);
  SegmentWriter w(path, hdr, &cache, 7);
  ASSERT_TRUE(w.ok());

  SparseCurveRecord s;
  s.flow = make_flow(1);
  s.windows = {{1, 1.0}};
  w.append_sparse(1, s, WindowConfidence::kCovered);
  ASSERT_TRUE(w.seal_epoch(1));
  // Epoch 2 reaches the file (finish flushes the tail) but is never sealed.
  s.windows = {{2, 2.0}};
  w.append_sparse(2, s, WindowConfidence::kCovered);
  EXPECT_TRUE(w.finish());

  auto r = SegmentReader::open(path, &cache, 7, /*writable=*/true);
  ASSERT_TRUE(r.has_value());
  std::size_t delivered = 0;
  auto res = r->scan([&](const RecordHeader&, std::uint64_t,
                         std::span<const std::uint8_t>) { ++delivered; });
  // Only epoch 1's record + seal are inside the sealed prefix.
  EXPECT_EQ(res.unsealed_records, 1u);
  EXPECT_EQ(delivered, res.sealed_records);
  ASSERT_TRUE(res.max_sealed_epoch.has_value());
  EXPECT_EQ(*res.max_sealed_epoch, 1u);
  EXPECT_LT(res.sealed_end, res.valid_end);

  // Recovery truncates to the seal; a rescan sees a clean file.
  ASSERT_TRUE(r->truncate_to(res.sealed_end));
  auto r2 = SegmentReader::open(path, &cache, 7);
  ASSERT_TRUE(r2.has_value());
  res = r2->scan(nullptr);
  EXPECT_FALSE(res.torn);
  EXPECT_EQ(res.unsealed_records, 0u);
  EXPECT_EQ(res.valid_end, res.sealed_end);
}

TEST(StoreSegment, FileNameParseRejectsTrailingBytes) {
  std::uint32_t id = 0;
  std::uint8_t tier = 0;
  EXPECT_TRUE(parse_segment_file_name("seg-0000002a-t1.useg", id, tier));
  EXPECT_EQ(id, 0x2Au);
  EXPECT_EQ(tier, 1u);
  // A stray file with trailing bytes must not parse: recovery keys segments
  // by id, so seg-...-t0.useg.bak could otherwise shadow the real segment
  // depending on readdir order.
  EXPECT_FALSE(parse_segment_file_name("seg-00000001-t0.useg.bak", id, tier));
  EXPECT_FALSE(parse_segment_file_name("seg-00000001-t0.useg2", id, tier));
  EXPECT_FALSE(parse_segment_file_name("seg-00000001-t0.use", id, tier));
  EXPECT_FALSE(parse_segment_file_name("seg-00000001-t9.useg", id, tier));
}

// --- page cache -------------------------------------------------------------

TEST(StorePageCache, ReadsHitAfterMissAndEvictClean) {
  TempDir dir("cache");
  const std::string path = dir.path + "/blob";
  std::vector<std::uint8_t> blob(1024);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 7);
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  PageCache cache(PageCacheConfig{/*page_bytes=*/64, /*budget_bytes=*/256});
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(cache.read(1, fd, 0, out));
  EXPECT_EQ(out, std::vector<std::uint8_t>(blob.begin(), blob.begin() + 64));
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_TRUE(cache.read(1, fd, 0, out));
  EXPECT_EQ(cache.stats().hits, 1u);

  // Touch every page: the clean set must stay within the 4-page budget.
  for (std::uint64_t off = 0; off < blob.size(); off += 64) {
    ASSERT_TRUE(cache.read(1, fd, off, out));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.stats().resident_pages, 4u);
  ::close(fd);
}

TEST(StorePageCache, DirtyPagesSurviveBudgetPressure) {
  PageCache cache(PageCacheConfig{/*page_bytes=*/64, /*budget_bytes=*/128});
  std::vector<std::uint8_t> data(64 * 8, 0x5A);
  // Write-through with no backing fd: all eight pages are dirty and must
  // stay resident even though they exceed the clean budget fourfold.
  cache.write_through(3, /*fd=*/-1, 0, data);
  EXPECT_EQ(cache.stats().dirty_pages, 8u);
  EXPECT_EQ(cache.stats().resident_pages, 8u);

  // The written bytes are readable without any fd (fd only serves misses).
  std::vector<std::uint8_t> out(64 * 8);
  ASSERT_TRUE(cache.read(3, /*fd=*/-1, 0, out));
  EXPECT_EQ(out, data);

  // Once durable, the pages become evictable and the budget re-applies.
  cache.mark_clean(3);
  EXPECT_EQ(cache.stats().dirty_pages, 0u);
  EXPECT_LE(cache.stats().resident_pages, 2u);
}

TEST(StorePageCache, DirtyTailDoesNotEvictCleanSet) {
  TempDir dir("cleanset");
  const std::string path = dir.path + "/blob";
  {
    std::ofstream out(path, std::ios::binary);
    const std::vector<char> blob(256, '\x42');
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  // The budget applies to the clean set only: fill it exactly, then pile on
  // a dirty tail four times its size — the clean pages must stay resident.
  PageCache cache(PageCacheConfig{/*page_bytes=*/64, /*budget_bytes=*/256});
  std::vector<std::uint8_t> out(64);
  for (std::uint64_t off = 0; off < 256; off += 64) {
    ASSERT_TRUE(cache.read(1, fd, off, out));
  }
  EXPECT_EQ(cache.stats().resident_pages, 4u);

  std::vector<std::uint8_t> tail(64 * 16, 0x7E);
  cache.write_through(2, /*fd=*/-1, 0, tail);
  EXPECT_EQ(cache.stats().resident_pages, 20u);
  EXPECT_EQ(cache.stats().dirty_pages, 16u);

  const std::uint64_t hits_before = cache.stats().hits;
  for (std::uint64_t off = 0; off < 256; off += 64) {
    ASSERT_TRUE(cache.read(1, fd, off, out));
  }
  EXPECT_EQ(cache.stats().hits, hits_before + 4);
  ::close(fd);
}

TEST(StorePageCache, MidPageWriteAfterEvictionFaultsPrefixFromDisk) {
  TempDir dir("midpage");
  const std::string path = dir.path + "/seg";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  PageCache cache(PageCacheConfig{/*page_bytes=*/64, /*budget_bytes=*/64});

  // "Sealed" epoch: the first half of page 0 is written through, flushed,
  // and marked clean (evictable).
  const std::vector<std::uint8_t> sealed(32, 0x11);
  cache.write_through(9, fd, 0, sealed);
  ASSERT_EQ(::pwrite(fd, sealed.data(), sealed.size(), 0),
            static_cast<ssize_t>(sealed.size()));
  cache.mark_clean(9);

  // Pressure the one-page clean budget until page 0 is evicted.
  const std::vector<std::uint8_t> filler(64 * 4, 0x22);
  ASSERT_EQ(::pwrite(fd, filler.data(), filler.size(), 64),
            static_cast<ssize_t>(filler.size()));
  std::vector<std::uint8_t> out(64);
  for (std::uint64_t off = 64; off < 64 * 5; off += 64) {
    ASSERT_TRUE(cache.read(9, fd, off, out));
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // Next epoch appends mid-page: the recreated page must fault the sealed
  // prefix back from disk, not shadow it with zeros (the page goes dirty
  // and would never be re-faulted).
  const std::vector<std::uint8_t> next(16, 0x33);
  cache.write_through(9, fd, 32, next);
  out.resize(48);
  ASSERT_TRUE(cache.read(9, fd, 0, out));
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + 32), sealed);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 32, out.end()), next);
  ::close(fd);
}

TEST(StoreWriteThrough, TinyCacheSurvivesEvictionAcrossEpochs) {
  // End-to-end shape of the mid-page fault bug: a one-page clean budget
  // plus a head-of-segment query after every seal forces the sealed tail
  // page out of the cache before the next epoch's mid-page append. Every
  // record must still be answerable through the cache afterwards.
  TempDir dir("tinycache");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.page_bytes = 64;
  cfg.cache_budget_bytes = 64;
  cfg.segment_epochs = 100;  // one segment: every epoch appends mid-page
  cfg.tier1_age_epochs = 0;
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);
  const FlowKey f = make_flow(1);
  QueryEngine engine(*st);
  double want = 0;
  for (int e = 0; e < 20; ++e) {
    Query head;
    head.from = 0;
    head.to = 2;
    (void)engine.run(head);  // churn the LRU: evict the sealed tail page
    st->append_sparse(f, std::vector<std::pair<WindowId, double>>{
                             {e, 1.0 + e}});
    want += 1.0 + e;
    if (e > 0) {
      // The previous epoch's record often shares a page with the append
      // above; while that page is dirty-resident (unevictable, so no disk
      // fallback can mask a shadowed prefix) it must still decode.
      Query prev;
      prev.from = e - 1;
      prev.to = e;
      const QueryResult pr = engine.run(prev);
      double pv = 0;
      for (double v : pr.series) pv += v;
      ASSERT_DOUBLE_EQ(pv, static_cast<double>(e)) << "epoch " << e;
    }
    ASSERT_TRUE(st->seal_epoch());
    Query q;
    q.from = 0;
    q.to = 1000;
    const QueryResult r = engine.run(q);
    double have = 0;
    for (double v : r.series) have += v;
    ASSERT_DOUBLE_EQ(have, want) << "epoch " << e;
  }
}

// --- write-through round-trip property --------------------------------------

/// Deterministic pseudo-random stream (tests must not use wall-clock seeds).
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 11;
  }
  double uniform() { return static_cast<double>(next() % 100000) / 100000.0; }
};

/// Feed a seeded synthetic run through a FlowCurveStore with `sink`
/// attached, sealing the store after each simulated epoch.
void run_synthetic(analyzer::FlowCurveStore& fcs, Store* store,
                   std::uint64_t seed, int epochs, int flows) {
  Lcg rng(seed);
  for (int e = 0; e < epochs; ++e) {
    for (int f = 0; f < flows; ++f) {
      std::vector<std::pair<WindowId, double>> windows;
      const WindowId base = static_cast<WindowId>(e) * 64;
      for (WindowId w = 0; w < 64; ++w) {
        if (rng.uniform() < 0.25) {
          windows.emplace_back(base + w,
                               std::floor(rng.uniform() * 10000.0));
        }
      }
      if (!windows.empty()) {
        fcs.add_sparse(make_flow(static_cast<std::uint32_t>(f)), windows);
      }
    }
    if (e == 1) {
      // A mid-run loss: the mark must flow through to the durable copy.
      fcs.mark_windows(70, 80, WindowConfidence::kLost);
    }
    if (store != nullptr) {
      ASSERT_TRUE(store->seal_epoch());
    }
  }
}

TEST(StoreRoundTrip, ReopenedStoreMatchesInRamCurves) {
  TempDir dir("roundtrip");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;  // keep everything exact tier-0
  analyzer::FlowCurveStore fcs;
  {
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    fcs.set_sink(st.get());
    run_synthetic(fcs, st.get(), /*seed=*/42, /*epochs=*/4, /*flows=*/20);
    fcs.set_sink(nullptr);
  }

  // Restart: reopen read-only and compare every flow byte-for-byte.
  RecoveryInfo ri;
  auto st = Store::open(cfg, &ri, /*writable=*/false);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(ri.torn_tails_truncated, 0u);
  ASSERT_TRUE(ri.last_sealed_epoch.has_value());

  QueryEngine engine(*st);
  const auto flows = fcs.flows();
  ASSERT_FALSE(flows.empty());
  for (const auto& f : flows) {
    WindowId first = 0, last = 0;
    ASSERT_TRUE(fcs.extent(f, first, last));
    WindowId sfirst = 0, slast = 0;
    ASSERT_TRUE(st->flow_extent(f, sfirst, slast));
    EXPECT_EQ(sfirst, first);
    EXPECT_EQ(slast, last);

    Query q;
    q.from = first;
    q.to = last + 1;
    q.flows = {f};
    const QueryResult r = engine.run(q);
    EXPECT_EQ(r.flows_matched, 1u);
    const auto want = fcs.range(f, first, last + 1);
    ASSERT_EQ(r.series.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      // Tier-0 is exact: the doubles survive the wire untouched.
      EXPECT_EQ(r.series[i], want[i]) << f.to_string() << " window " << i;
    }
  }

  // The confidence mark survived the restart.
  EXPECT_EQ(st->worst_confidence(70, 80), WindowConfidence::kLost);
  EXPECT_EQ(st->worst_confidence(0, 60), WindowConfidence::kCovered);
}

// --- wavelet tiering --------------------------------------------------------

/// A bursty reference curve: idle floor with a few dominant spikes — the
/// shape top-K truncation is designed to preserve.
std::vector<double> bursty_curve(std::size_t n) {
  std::vector<double> v(n, 0.0);
  Lcg rng(7);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::floor(rng.uniform() * 50);
  for (std::size_t burst = 0; burst < n / 32; ++burst) {
    const std::size_t at = (burst * 37) % n;
    for (std::size_t i = at; i < std::min(n, at + 4); ++i) v[i] += 20000.0;
  }
  return v;
}

TEST(StoreTier, ByteRatioAndNmseBounds) {
  const auto dense = bursty_curve(256);
  const FlowKey f = make_flow(1);
  std::size_t nnz = 0;
  for (double v : dense) nnz += v != 0.0 ? 1 : 0;
  const std::size_t tier0_bytes = sparse_payload_bytes(nnz);

  TierParams p1;
  p1.budget_coeffs = 32;
  p1.max_payload_bytes = tier0_bytes / 2;
  const CoeffCurveRecord t1 = tier_from_dense(f, 0, dense, p1);
  const std::size_t t1_bytes =
      coeff_payload_bytes(t1.approx.size(), t1.details.size());
  EXPECT_LE(t1_bytes, tier0_bytes / 2);
  EXPECT_LE(t1.details.size(), p1.budget_coeffs);
  // Full-depth transform: the approximation is a single grand sum.
  EXPECT_EQ(t1.approx.size(), 1u);

  TierParams p2;
  p2.budget_coeffs = 16;
  p2.max_payload_bytes = t1_bytes / 2;
  const CoeffCurveRecord t2 = truncate_coeffs(t1, p2);
  const std::size_t t2_bytes =
      coeff_payload_bytes(t2.approx.size(), t2.details.size());
  EXPECT_LE(t2_bytes, tier0_bytes / 4);

  // Documented NMSE bounds for this budget on bursty traffic (DESIGN.md
  // §12): tiering keeps the burst structure, it does not average it away.
  const double nmse1 = reconstruction_nmse(t1, dense);
  const double nmse2 = reconstruction_nmse(t2, dense);
  EXPECT_LE(nmse1, 0.15) << "tier-1 reconstruction drifted";
  EXPECT_LE(nmse2, 0.40) << "tier-2 reconstruction drifted";
  EXPECT_LE(nmse1, nmse2 + 1e-12);  // nested truncation only removes detail

  // Total volume is conserved exactly: the grand sum is never truncated.
  double want = 0, have = 0;
  for (double v : dense) want += v;
  const auto rec = wavelet::reconstruct(t2.approx, t2.details,
                                        t2.length, t2.levels);
  for (double v : rec) have += v;
  EXPECT_NEAR(have, want, 1e-6);
}

TEST(StoreTier, EndToEndCompactionKeepsQueryableVolume) {
  TempDir dir("compact");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 1;    // one segment per epoch
  cfg.tier1_age_epochs = 2;  // aggressive aging so the test sees both hops
  cfg.tier2_age_epochs = 4;
  cfg.tier_budget = 32;
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);

  analyzer::FlowCurveStore fcs;
  fcs.set_sink(st.get());
  run_synthetic(fcs, st.get(), /*seed=*/11, /*epochs=*/8, /*flows=*/6);
  // One pass takes eligible tier-0 segments to tier 1; the next pass ages
  // the oldest of those outputs on to tier 2.
  st->maintain();
  st->maintain();
  fcs.set_sink(nullptr);

  const StoreStats ss = st->stats();
  EXPECT_GT(ss.compactions_tier1, 0u);
  EXPECT_GT(ss.compactions_tier2, 0u);
  EXPECT_LT(ss.compaction_output_bytes, ss.compaction_input_bytes);

  // Aged ranges reconstruct from coefficients; total traffic volume per
  // flow must survive both hops (the grand sum is retained verbatim).
  // Query over the *store's* extent: a truncated detail set spreads some
  // energy into the chunk's padding windows, so the durable extent can be
  // slightly wider than the in-RAM one — but the total is conserved.
  QueryEngine engine(*st);
  for (const auto& f : fcs.flows()) {
    WindowId first = 0, last = 0;
    ASSERT_TRUE(st->flow_extent(f, first, last));
    Query q;
    q.from = first;
    q.to = last + 1;
    q.flows = {f};
    const QueryResult r = engine.run(q);
    double have = 0;
    for (double v : r.series) have += v;
    EXPECT_NEAR(have, fcs.total_bytes(f),
                std::max(1.0, fcs.total_bytes(f) * 1e-6));
  }
}

// --- selection / compaction equivalence ---------------------------------------

/// The full-sort selection that tier_from_dense / truncate_coeffs used before
/// the top-K rewrite, kept here as the reference the fast path must match.
namespace reference {

bool heavier(const wavelet::DetailCoeff& a, const wavelet::DetailCoeff& b) {
  const double wa = wavelet::l2_weight(a);
  const double wb = wavelet::l2_weight(b);
  if (wa != wb) return wa > wb;
  if (a.level != b.level) return a.level < b.level;
  return a.index < b.index;
}

void clamp_and_sort(std::vector<wavelet::DetailCoeff>& details,
                    std::size_t approx_count, const TierParams& params) {
  std::size_t keep = std::min(details.size(), params.budget_coeffs);
  if (params.max_payload_bytes > 0) {
    while (keep > 0 &&
           coeff_payload_bytes(approx_count, keep) > params.max_payload_bytes) {
      --keep;
    }
  }
  details.resize(keep);
  std::sort(details.begin(), details.end(),
            [](const wavelet::DetailCoeff& a, const wavelet::DetailCoeff& b) {
              if (a.level != b.level) return a.level < b.level;
              return a.index < b.index;
            });
}

CoeffCurveRecord tier_from_dense(const FlowKey& flow, WindowId w0,
                                 std::span<const double> dense,
                                 const TierParams& params) {
  CoeffCurveRecord rec;
  rec.flow = flow;
  rec.w0 = w0;
  rec.length = static_cast<std::uint32_t>(dense.size());
  std::vector<Count> counts(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    counts[i] = static_cast<Count>(std::llround(dense[i]));
  }
  const std::uint32_t padded = wavelet::next_pow2(rec.length);
  const int full_depth =
      wavelet::effective_levels(padded, 8 * static_cast<int>(sizeof(padded)));
  const wavelet::Decomposition d = wavelet::haar_forward(counts, full_depth);
  rec.levels = d.levels;
  rec.approx = d.approx;
  std::vector<wavelet::DetailCoeff> ranked;
  for (int l = 0; l < d.levels; ++l) {
    const auto& row = d.details[static_cast<std::size_t>(l)];
    for (std::uint32_t j = 0; j < row.size(); ++j) {
      if (row[j] == 0) continue;
      ranked.push_back(wavelet::DetailCoeff{static_cast<std::uint8_t>(l), j,
                                            row[j]});
    }
  }
  std::sort(ranked.begin(), ranked.end(), heavier);
  clamp_and_sort(ranked, rec.approx.size(), params);
  rec.details = std::move(ranked);
  return rec;
}

CoeffCurveRecord truncate_coeffs(const CoeffCurveRecord& in,
                                 const TierParams& params) {
  CoeffCurveRecord rec = in;
  std::sort(rec.details.begin(), rec.details.end(), heavier);
  clamp_and_sort(rec.details, rec.approx.size(), params);
  return rec;
}

}  // namespace reference

void expect_same_record(const CoeffCurveRecord& got,
                        const CoeffCurveRecord& want, const std::string& what) {
  EXPECT_EQ(got.flow.packed(), want.flow.packed()) << what;
  EXPECT_EQ(got.w0, want.w0) << what;
  EXPECT_EQ(got.length, want.length) << what;
  EXPECT_EQ(got.levels, want.levels) << what;
  EXPECT_EQ(got.approx, want.approx) << what;
  EXPECT_EQ(got.details, want.details) << what;
}

/// Seeded dense chunk of one of five shapes: small integers (dense equal-
/// weight ties across levels), bursty, all zero, a single nonzero, sparse.
std::vector<double> random_chunk(Lcg& rng, std::size_t n, int shape) {
  std::vector<double> v(n, 0.0);
  switch (shape) {
    case 0:
      for (double& x : v) x = static_cast<double>(rng.next() % 3);
      break;
    case 1:
      for (double& x : v) {
        x = rng.uniform() < 0.1 ? std::floor(rng.uniform() * 40000.0)
                                : std::floor(rng.uniform() * 50.0);
      }
      break;
    case 2:
      break;
    case 3:
      v[rng.next() % n] = 1.0 + static_cast<double>(rng.next() % 1000);
      break;
    default:
      for (double& x : v) {
        if (rng.uniform() < 0.05) x = rng.uniform() * 1500.0;
      }
      break;
  }
  return v;
}

TEST(StoreTier, SelectionMatchesFullSortReference) {
  constexpr std::size_t kLengths[] = {1, 2, 3, 7, 64, 100, 256, 1000, 4096};
  constexpr std::size_t kBudgets[] = {1, 4, 32, 100000};
  Lcg rng(20240813);
  const FlowKey flow = make_flow(5);
  for (int i = 0; i < 240; ++i) {
    const std::size_t n = kLengths[rng.next() % std::size(kLengths)];
    const int shape = static_cast<int>(rng.next() % 5);
    const std::vector<double> dense = random_chunk(rng, n, shape);
    TierParams p;
    p.budget_coeffs = kBudgets[rng.next() % std::size(kBudgets)];
    // Payload clamp: none, binding (somewhere inside the budget), or so
    // small that nothing fits.
    switch (rng.next() % 3) {
      case 0: p.max_payload_bytes = 0; break;
      case 1: p.max_payload_bytes = coeff_payload_bytes(1, rng.next() % 40); break;
      default: p.max_payload_bytes = 1; break;
    }
    const std::string what = "chunk " + std::to_string(i) + " n=" +
                             std::to_string(n) + " shape=" +
                             std::to_string(shape);
    const CoeffCurveRecord want =
        reference::tier_from_dense(flow, 4096 * i, dense, p);
    const CoeffCurveRecord got = tier_from_dense(flow, 4096 * i, dense, p);
    expect_same_record(got, want, what);

    // Nested truncation of the untruncated record, under a fresh budget.
    TierParams all;
    all.budget_coeffs = 100000;
    const CoeffCurveRecord full = tier_from_dense(flow, 0, dense, all);
    TierParams p2;
    p2.budget_coeffs = kBudgets[rng.next() % std::size(kBudgets)];
    p2.max_payload_bytes =
        rng.next() % 2 == 0 ? 0 : coeff_payload_bytes(1, rng.next() % 24);
    expect_same_record(truncate_coeffs(full, p2),
                       reference::truncate_coeffs(full, p2), what + " nested");
  }

  // Crafted equal-weight ties across levels: value b * 2^(l/2) at level l
  // has weight b/sqrt(2) on every even level and b/2 on every odd one, so
  // only the (level, index) tie-break orders them. Input order is shuffled.
  for (int i = 0; i < 60; ++i) {
    CoeffCurveRecord rec;
    rec.flow = flow;
    rec.length = 1u << 12;
    rec.levels = 12;
    rec.approx = {12345};
    const std::size_t count = rng.next() % 300;
    for (std::uint32_t j = 0; j < count; ++j) {
      const auto level = static_cast<std::uint8_t>(rng.next() % 12);
      const Count base = 1 + static_cast<Count>(rng.next() % 3);
      const Count sign = rng.next() % 2 == 0 ? 1 : -1;
      rec.details.push_back(wavelet::DetailCoeff{
          level, j, sign * base * (Count{1} << (level / 2))});
    }
    for (std::size_t j = rec.details.size(); j > 1; --j) {
      std::swap(rec.details[j - 1], rec.details[rng.next() % j]);
    }
    TierParams p;
    p.budget_coeffs = kBudgets[rng.next() % std::size(kBudgets)];
    p.max_payload_bytes =
        rng.next() % 2 == 0 ? 0 : coeff_payload_bytes(1, rng.next() % 64);
    expect_same_record(truncate_coeffs(rec, p),
                       reference::truncate_coeffs(rec, p),
                       "crafted " + std::to_string(i));
  }
}

/// FNV-1a over every file in `dir`: names in sorted order, each followed by
/// the file's bytes.
std::uint64_t dir_digest(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (const std::string& name : names) {
    for (const char c : name) mix(static_cast<std::uint8_t>(c));
    mix(0);
    for (const std::uint8_t b : read_file(dir + "/" + name)) mix(b);
  }
  return h;
}

TEST(StoreTier, CompactionBytesUnchanged) {
  TempDir dir("compact_bytes");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 2;
  cfg.tier1_age_epochs = 2;
  cfg.tier2_age_epochs = 4;
  cfg.tier_budget = 16;
  cfg.max_chunk_windows = 64;  // flows span several aligned chunks
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);

  Lcg rng(4242);
  for (int e = 0; e < 14; ++e) {
    for (std::uint32_t f = 0; f < 8; ++f) {
      // 1-3 records per flow and epoch. Later records re-write windows of
      // earlier ones, reaching back up to 40 windows (write-through deltas),
      // so a segment's per-flow window stream arrives out of order.
      const int records = 1 + static_cast<int>(rng.next() % 3);
      for (int r = 0; r < records; ++r) {
        const WindowId from = 48 * e + static_cast<WindowId>(rng.next() % 32) +
                              (r > 0 ? 8 : 48);
        const WindowId back = r > 0 ? static_cast<WindowId>(rng.next() % 41) : 0;
        const WindowId start = std::max<WindowId>(0, from - back);
        std::vector<std::pair<WindowId, double>> windows;
        for (WindowId w = start; w < start + 24; ++w) {
          if (rng.uniform() < 0.4) {
            windows.emplace_back(
                w, static_cast<double>(rng.next() % 100000) / 7.0);
          }
        }
        if (!windows.empty()) st->append_sparse(make_flow(f), windows);
      }
    }
    // Overlapping marks, within one epoch and across the epochs of one
    // segment: the compactor keeps each window's worst confidence.
    if (e == 3) {
      st->mark_confidence(150, 190, WindowConfidence::kRetransmitted);
      st->mark_confidence(170, 175, WindowConfidence::kLost);
      st->mark_confidence(160, 200, WindowConfidence::kGapFilled);
    }
    if (e == 4) st->mark_confidence(195, 230, WindowConfidence::kRetransmitted);
    if (e == 6) st->mark_confidence(300, 310, WindowConfidence::kGapFilled);
    if (e == 7) st->mark_confidence(305, 306, WindowConfidence::kLost);
    ASSERT_TRUE(st->seal_epoch());
    st->maintain();
  }
  const StoreStats ss = st->stats();
  EXPECT_GT(ss.compactions_tier1, 0u);
  EXPECT_GT(ss.compactions_tier2, 0u);
  st.reset();
  // Recorded on the full-sort, std::map-accumulating compactor: the
  // linear-time rewrite must not move a single byte of any segment.
  EXPECT_EQ(dir_digest(dir.path), 0x41d8046abc6ad5b9ull);
}

TEST(StoreTier, CompactionKeepsWorstConfidencePerWindow) {
  TempDir dir("compact_marks");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 3;
  cfg.tier1_age_epochs = 1;
  cfg.tier2_age_epochs = 1000;
  std::map<WindowId, WindowConfidence> want;
  {
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    Lcg rng(77);
    for (int e = 0; e < 9; ++e) {
      st->append_sparse(make_flow(1), {{{static_cast<WindowId>(e), 1.0}}});
      // Random overlapping marks of every confidence, some empty.
      for (int m = 0; m < 6; ++m) {
        const auto from = static_cast<WindowId>(rng.next() % 300);
        const auto to = from + static_cast<WindowId>(rng.next() % 40);
        const auto conf = static_cast<WindowConfidence>(rng.next() % 4);
        st->mark_confidence(from, to, conf);
        if (conf == WindowConfidence::kCovered) continue;
        for (WindowId w = from; w < to; ++w) {
          auto [it, inserted] = want.try_emplace(w, conf);
          if (!inserted && conf > it->second) it->second = conf;
        }
      }
      ASSERT_TRUE(st->seal_epoch());
      st->maintain();
    }
    EXPECT_GT(st->stats().compactions_tier1, 1u);
  }
  // Reopen: the marks now come from the compacted segments' coalesced runs
  // plus the tier-0 segments' raw ones.
  auto back = Store::open(cfg, nullptr, /*writable=*/false);
  ASSERT_NE(back, nullptr);
  for (WindowId w = 0; w < 340; ++w) {
    const auto it = want.find(w);
    const WindowConfidence expect =
        it == want.end() ? WindowConfidence::kCovered : it->second;
    EXPECT_EQ(back->worst_confidence(w, w + 1), expect) << "window " << w;
  }
}

// --- query engine -----------------------------------------------------------

TEST(StoreQuery, GroupingOpsAndConfidence) {
  TempDir dir("query");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);

  const FlowKey a = make_flow(1);  // src_ip 10.1
  const FlowKey b = make_flow(2);  // src_ip 10.2
  const std::vector<std::pair<WindowId, double>> wa = {
      {0, 10.0}, {1, 20.0}, {2, 30.0}, {3, 40.0}};
  const std::vector<std::pair<WindowId, double>> wb = {{0, 5.0}, {2, 15.0}};
  st->append_sparse(a, wa);
  st->append_sparse(b, wb);
  st->mark_confidence(2, 3, WindowConfidence::kRetransmitted);
  ASSERT_TRUE(st->seal_epoch());

  QueryEngine engine(*st);
  Query q;
  q.from = 0;
  q.to = 4;
  q.resolution = 2;

  q.op = GroupOp::kSum;
  QueryResult r = engine.run(q);
  EXPECT_EQ(r.flows_matched, 2u);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_DOUBLE_EQ(r.series[0], 35.0);  // (10+5) + 20
  EXPECT_DOUBLE_EQ(r.series[1], 85.0);  // (30+15) + 40
  EXPECT_EQ(r.confidence[0], WindowConfidence::kCovered);
  EXPECT_EQ(r.confidence[1], WindowConfidence::kRetransmitted);

  q.op = GroupOp::kMax;
  r = engine.run(q);
  EXPECT_DOUBLE_EQ(r.series[0], 20.0);
  EXPECT_DOUBLE_EQ(r.series[1], 45.0);

  q.op = GroupOp::kAvg;
  r = engine.run(q);
  EXPECT_DOUBLE_EQ(r.series[0], 17.5);

  // Host selector: only flow a's src_ip matches.
  q.op = GroupOp::kSum;
  q.src_host = a.src_ip;
  r = engine.run(q);
  EXPECT_EQ(r.flows_matched, 1u);
  EXPECT_DOUBLE_EQ(r.series[0], 30.0);
  EXPECT_DOUBLE_EQ(r.series[1], 70.0);
}

TEST(StoreQuery, RepeatedMarksKeepTheWorstClass) {
  // Each host's epoch marks the same windows, so runs repeat. A repeat
  // inside the last run may skip the walk, but a worse class must still
  // upgrade, a better one must never downgrade, and every run persists.
  // A record appended after the marks carries the worst mark among its
  // own (sparse) windows.
  TempDir dir("repeat_marks");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;
  const auto expect_marks = [](const Store& st) {
    const auto at = [&](WindowId w) { return st.worst_confidence(w, w + 1); };
    EXPECT_EQ(at(9), WindowConfidence::kCovered);
    EXPECT_EQ(at(10), WindowConfidence::kRetransmitted);
    EXPECT_EQ(at(12), WindowConfidence::kLost);
    EXPECT_EQ(at(13), WindowConfidence::kLost);
    EXPECT_EQ(at(14), WindowConfidence::kRetransmitted);
    EXPECT_EQ(at(18), WindowConfidence::kGapFilled);
    EXPECT_EQ(at(24), WindowConfidence::kGapFilled);
    EXPECT_EQ(at(25), WindowConfidence::kCovered);
  };
  const auto record_class = [](Store& st, std::uint32_t flow) {
    WindowConfidence c = WindowConfidence::kCovered;
    st.visit_flow(make_flow(flow), 0, 100,
                  [&](const ChunkView& v) { c = v.confidence; });
    return c;
  };
  const auto expect_records = [&](Store& st) {
    EXPECT_EQ(record_class(st, 1), WindowConfidence::kLost);
    EXPECT_EQ(record_class(st, 2), WindowConfidence::kRetransmitted);
    EXPECT_EQ(record_class(st, 3), WindowConfidence::kCovered);
  };
  {
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    st->mark_confidence(10, 20, WindowConfidence::kRetransmitted);
    st->mark_confidence(10, 20, WindowConfidence::kRetransmitted);
    st->mark_confidence(12, 14, WindowConfidence::kLost);
    st->mark_confidence(10, 20, WindowConfidence::kRetransmitted);
    st->mark_confidence(12, 13, WindowConfidence::kGapFilled);
    st->mark_confidence(18, 25, WindowConfidence::kGapFilled);
    st->mark_confidence(20, 22, WindowConfidence::kRetransmitted);
    expect_marks(*st);
    using Windows = std::vector<std::pair<WindowId, double>>;
    st->append_sparse(make_flow(1), Windows{{9, 1.0}, {13, 1.0}});
    st->append_sparse(make_flow(2), Windows{{11, 1.0}, {25, 1.0}});
    st->append_sparse(make_flow(3), Windows{{25, 1.0}, {30, 1.0}});
    ASSERT_TRUE(st->seal_epoch());
    expect_records(*st);
  }
  auto reopened = Store::open(cfg);
  ASSERT_NE(reopened, nullptr);
  expect_marks(*reopened);
  expect_records(*reopened);
}

TEST(StoreQuery, HostileRangeClampsToStoreExtent) {
  TempDir dir("clamp");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);
  const FlowKey f = make_flow(1);
  st->append_sparse(f, std::vector<std::pair<WindowId, double>>{
                           {static_cast<WindowId>(5), 2.0}});
  st->mark_confidence(7, 8, WindowConfidence::kLost);
  ASSERT_TRUE(st->seal_epoch());

  // A range of a trillion windows must not materialize a dense vector of
  // that size — the executed range clamps to the store's extent [5, 8).
  QueryEngine engine(*st);
  Query q;
  q.from = 0;
  q.to = static_cast<WindowId>(1) << 40;
  QueryResult r = engine.run(q);
  EXPECT_EQ(r.from, 5);
  EXPECT_EQ(r.to, 8);
  ASSERT_EQ(r.series.size(), 3u);
  EXPECT_DOUBLE_EQ(r.series[0], 2.0);
  EXPECT_EQ(r.confidence[2], WindowConfidence::kLost);

  // No overlap with the extent at all: empty result, no allocation.
  q.from = 100;
  q.to = static_cast<WindowId>(1) << 40;
  r = engine.run(q);
  EXPECT_TRUE(r.series.empty());
  EXPECT_EQ(r.flows_matched, 0u);
}

// --- maintained index views ---------------------------------------------------

namespace reference {

/// The per-flow extent union umon_query and serve read before the store
/// kept a curve extent: flow_extent() of every flow, as a half-open range.
bool curve_extent(Store& st, WindowId& lo, WindowId& hi) {
  bool have = false;
  for (const FlowKey& f : StoreIndexAudit::flows(st)) {
    WindowId first = 0, last = 0;
    if (!st.flow_extent(f, first, last)) continue;
    if (!have || first < lo) lo = first;
    if (!have || last + 1 > hi) hi = last + 1;
    have = true;
  }
  return have;
}

/// QueryEngine::run as it read the store before visit_flows(): full-scan
/// extent and flow list, one visit_flow per flow, one worst_confidence per
/// bucket.
QueryResult execute(Store& st, const Query& q) {
  QueryResult result;
  if (q.from >= q.to || q.resolution == 0) return result;
  result.from = q.from;
  result.to = q.to;
  result.resolution = q.resolution;
  result.op = q.op;
  WindowId ext_first = 0;
  WindowId ext_last = 0;
  if (!StoreIndexAudit::window_extent(st, ext_first, ext_last)) return result;
  const WindowId from = std::max(q.from, ext_first);
  const WindowId to = std::min(q.to, static_cast<WindowId>(ext_last + 1));
  if (from >= to) return result;
  result.from = from;
  result.to = to;

  std::vector<FlowKey> selected =
      q.flows.empty() ? StoreIndexAudit::flows(st) : q.flows;
  if (q.src_host.has_value()) {
    std::erase_if(selected,
                  [&](const FlowKey& f) { return f.src_ip != *q.src_host; });
  }
  const std::size_t n = static_cast<std::size_t>(to - from);
  std::vector<double> totals(n, 0.0);
  for (const FlowKey& flow : selected) {
    bool touched = false;
    st.visit_flow(flow, from, to, [&](const ChunkView& chunk) {
      touched = true;
      if (chunk.kind == RecordKind::kSparseCurve) {
        for (const auto& [w, v] : chunk.sparse->windows) {
          if (w < from || w >= to) continue;
          totals[static_cast<std::size_t>(w - from)] += v;
        }
      } else if (chunk.kind == RecordKind::kCoeffCurve) {
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
    if (touched) ++result.flows_matched;
  }

  const std::size_t buckets = (n + q.resolution - 1) / q.resolution;
  result.series.resize(buckets, 0.0);
  result.confidence.resize(buckets, WindowConfidence::kCovered);
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t lo = b * q.resolution;
    const std::size_t hi = std::min(n, lo + q.resolution);
    switch (q.op) {
      case GroupOp::kSum:
      case GroupOp::kAvg: {
        double acc = 0.0;
        for (std::size_t i = lo; i < hi; ++i) acc += totals[i];
        result.series[b] = q.op == GroupOp::kSum
                               ? acc
                               : acc / static_cast<double>(hi - lo);
        break;
      }
      case GroupOp::kMax: {
        double best = 0.0;
        for (std::size_t i = lo; i < hi; ++i) best = std::max(best, totals[i]);
        result.series[b] = best;
        break;
      }
      case GroupOp::kP99:
        result.series[b] = percentile(
            std::vector<double>(totals.begin() + static_cast<std::ptrdiff_t>(lo),
                                totals.begin() + static_cast<std::ptrdiff_t>(hi)),
            0.99);
        break;
    }
    result.confidence[b] = st.worst_confidence(
        from + static_cast<WindowId>(lo), from + static_cast<WindowId>(hi));
  }
  return result;
}

}  // namespace reference

FaultPlan plan_of(const std::string& text) {
  std::istringstream in(text);
  std::string err;
  auto plan = FaultPlan::parse(in, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(FaultPlan{});
}

/// Segment files of `dir` by id: (path, header), read raw.
std::map<std::uint32_t, std::pair<std::string, SegmentHeader>> segment_files(
    const std::string& dir) {
  std::map<std::uint32_t, std::pair<std::string, SegmentHeader>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    std::uint32_t id = 0;
    std::uint8_t tier = 0;
    if (!parse_segment_file_name(e->d_name, id, tier)) continue;
    const std::string path = dir + "/" + e->d_name;
    const std::vector<std::uint8_t> bytes = read_file(path);
    if (bytes.size() < kSegmentHeaderBytes) continue;
    SegmentHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    out.emplace(id, std::make_pair(path, h));
  }
  ::closedir(d);
  return out;
}

/// Rot the last payload byte of the first sparse record in the segment at
/// `path` (of `flow`, when given), behind every cache's back.
bool rot_sparse_record(const std::string& path,
                       std::optional<FlowKey> flow = std::nullopt) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  std::uint64_t pos = kSegmentHeaderBytes;
  while (pos + kRecordHeaderBytes <= bytes.size()) {
    RecordHeader rh;
    if (!decode_record_header(std::span<const std::uint8_t>(
                                  bytes.data() + pos, kRecordHeaderBytes),
                              rh)) {
      return false;
    }
    const std::uint64_t payload = pos + kRecordHeaderBytes;
    if (payload + rh.payload_len > bytes.size()) return false;
    if (rh.kind == static_cast<std::uint8_t>(RecordKind::kSparseCurve) &&
        rh.payload_len > 0) {
      const auto rec = decode_sparse(std::span<const std::uint8_t>(
          bytes.data() + payload, rh.payload_len));
      if (rec.has_value() && (!flow || rec->flow == *flow)) {
        const int fd = ::open(path.c_str(), O_RDWR);
        if (fd < 0) return false;
        const off_t off = static_cast<off_t>(payload + rh.payload_len - 1);
        const std::uint8_t b = bytes[payload + rh.payload_len - 1] ^ 0xFF;
        const bool ok = ::pwrite(fd, &b, 1, off) == 1;
        ::close(fd);
        return ok;
      }
    }
    pos = payload + rh.payload_len;
  }
  return false;
}

void expect_same_result(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.from, want.from);
  EXPECT_EQ(got.to, want.to);
  EXPECT_EQ(got.resolution, want.resolution);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.flows_matched, want.flows_matched);
  ASSERT_EQ(got.series.size(), want.series.size());
  for (std::size_t i = 0; i < got.series.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.series[i]),
              std::bit_cast<std::uint64_t>(want.series[i]))
        << "bucket " << i << ": " << got.series[i] << " vs " << want.series[i];
  }
  EXPECT_EQ(got.confidence, want.confidence);
}

/// The maintained views (flow_count, flows, curve and window extent) equal
/// the full scans, and seeded queries — all flows, per flow, by host —
/// equal the pre-visit_flows engine bit for bit.
void expect_index_matches_reference(Store& st, Lcg& rng,
                                    const std::string& step) {
  SCOPED_TRACE(step);
  const std::vector<FlowKey> flows = StoreIndexAudit::flows(st);
  EXPECT_TRUE(st.flows() == flows);
  EXPECT_EQ(st.flow_count(), flows.size());

  WindowId lo = 0, hi = 0;
  const bool have_curve = reference::curve_extent(st, lo, hi);
  WindowId first = 0, last = 0;
  ASSERT_EQ(st.curve_extent(first, last), have_curve);
  if (have_curve) {
    EXPECT_EQ(first, lo);
    EXPECT_EQ(last + 1, hi);
  }
  WindowId want_first = 0, want_last = 0;
  const bool have_window =
      StoreIndexAudit::window_extent(st, want_first, want_last);
  ASSERT_EQ(st.window_extent(first, last), have_window);
  if (have_window) {
    EXPECT_EQ(first, want_first);
    EXPECT_EQ(last, want_last);
  }
  if (!have_window) return;

  std::vector<Query> queries;
  Query base;
  base.from = have_curve ? lo : want_first;
  base.to = have_curve ? hi : want_last + 1;
  for (const GroupOp op :
       {GroupOp::kSum, GroupOp::kAvg, GroupOp::kMax, GroupOp::kP99}) {
    Query q = base;
    q.op = op;
    q.resolution = 1 + static_cast<std::uint32_t>(rng.next() % 7);
    queries.push_back(q);
  }
  // An explicit sub-range and a hostile one that the extent must clamp.
  Query sub = base;
  sub.from = base.from + (base.to - base.from) / 3;
  sub.to = std::max<WindowId>(sub.from + 1, base.to - (base.to - base.from) / 4);
  queries.push_back(sub);
  Query wide = base;
  wide.from = 0;
  wide.to = static_cast<WindowId>(1) << 40;
  wide.resolution = 16;
  queries.push_back(wide);
  if (!flows.empty()) {
    // Per flow, a duplicate and an unstored flow in one list, by host over
    // every flow, and by host over an explicit list.
    Query per = base;
    for (int i = 0; i < 3; ++i) {
      per.flows.push_back(flows[rng.next() % flows.size()]);
    }
    per.flows.push_back(per.flows.front());
    per.flows.push_back(make_flow(9999));
    queries.push_back(per);
    for (const FlowKey& f : per.flows) {
      Query one = base;
      one.flows = {f};
      queries.push_back(one);
    }
    Query host = base;
    host.src_host = flows[rng.next() % flows.size()].src_ip;
    queries.push_back(host);
    per.src_host = per.flows.front().src_ip;
    queries.push_back(per);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    QueryEngine engine(st);
    expect_same_result(engine.run(queries[i]),
                       reference::execute(st, queries[i]));
  }
}

TEST(StoreQuery, IndexMatchesFullScanReference) {
  for (const std::uint32_t grace : {0u, 3u}) {
    SCOPED_TRACE("repair_grace_epochs " + std::to_string(grace));
    TempDir dir("index_ref" + std::to_string(grace));
    // The fifth fsync is a seal's: it fails and the store reconciles the
    // active segment with its durable prefix.
    FaultyIo io(plan_of("disk-fail op=fsync nth=5\n"));
    StoreConfig cfg;
    cfg.dir = dir.path;
    cfg.segment_epochs = 2;
    cfg.tier1_age_epochs = 3;
    cfg.tier2_age_epochs = 6;
    cfg.tier_budget = 16;
    cfg.max_chunk_windows = 64;
    cfg.repair_grace_epochs = grace;
    cfg.io = &io;
    Lcg rng(0x1DE5 + grace);
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    expect_index_matches_reference(*st, rng, "empty");

    std::uint32_t epoch = 0;
    // One epoch of appends: new flow keys keep arriving, windows overlap
    // the neighbouring epochs, and a confidence run now and then.
    const auto write_epoch = [&](Store& s) {
      const int records = 3 + static_cast<int>(rng.next() % 5);
      for (int r = 0; r < records; ++r) {
        const auto f = static_cast<std::uint32_t>(rng.next() % (4 + 2 * epoch));
        std::vector<std::pair<WindowId, double>> windows;
        const WindowId w0 = static_cast<WindowId>(epoch) * 16 +
                            static_cast<WindowId>(rng.next() % 8);
        for (WindowId w = w0; w < w0 + 24; ++w) {
          if (rng.uniform() < 0.4) {
            windows.emplace_back(w, 1.0 + std::floor(rng.uniform() * 1000.0));
          }
        }
        if (!windows.empty()) s.append_sparse(make_flow(f), windows);
      }
      if (rng.next() % 3 == 0) {
        const WindowId from = static_cast<WindowId>(epoch) * 16 +
                              static_cast<WindowId>(rng.next() % 16);
        s.mark_confidence(from, from + 1 + static_cast<WindowId>(rng.next() % 6),
                          rng.next() % 2 == 0 ? WindowConfidence::kRetransmitted
                                              : WindowConfidence::kGapFilled);
      }
    };
    const auto step = [&](const std::string& what) {
      return what + " @ epoch " + std::to_string(epoch);
    };
    const auto run_epoch = [&](Store& s, bool maintain) {
      write_epoch(s);
      expect_index_matches_reference(s, rng, step("append"));
      (void)s.seal_epoch();  // one seal fails by plan
      ++epoch;
      expect_index_matches_reference(s, rng, step("seal"));
      if (maintain) {
        (void)s.maintain();
        expect_index_matches_reference(s, rng, step("maintain"));
      }
    };

    for (int e = 0; e < 16; ++e) run_epoch(*st, /*maintain=*/true);
    {
      const StoreStats ss = st->stats();
      EXPECT_EQ(ss.seal_failures, 1u);
      EXPECT_GT(ss.compactions_tier1, 0u);
      EXPECT_GT(ss.compactions_tier2, 0u);
    }

    // Scrub quarantine with no shadow: rot the record that holds the curve
    // extent's last window. Its windows turn lost, and the extent shrinks.
    const FlowKey outlier = make_flow(4242);
    st->append_sparse(outlier, std::vector<std::pair<WindowId, double>>{
                                   {static_cast<WindowId>(epoch) * 16 + 100000,
                                    7.0}});
    ASSERT_TRUE(st->seal_epoch());
    ++epoch;
    run_epoch(*st, /*maintain=*/false);  // rolls the outlier's segment
    bool rotted = false;
    for (const auto& [id, file] : segment_files(dir.path)) {
      if (file.second.tier == 0 && rot_sparse_record(file.first, outlier)) {
        rotted = true;
        break;
      }
    }
    ASSERT_TRUE(rotted);
    {
      const ScrubReport rep = st->scrub();
      EXPECT_EQ(rep.chunks_quarantined, 1u);
      EXPECT_EQ(rep.chunks_repaired, 0u);
    }
    expect_index_matches_reference(*st, rng, step("scrub, no shadow"));

    if (grace > 0) {
      // Scrub quarantine with a shadow repair: rot a compaction source
      // while its coarse replacement still waits out the grace window.
      bool repaired = false;
      for (int e = 0; e < 8 && !repaired; ++e) {
        run_epoch(*st, /*maintain=*/true);
        const auto files = segment_files(dir.path);
        for (const auto& [id, file] : files) {
          const auto src = files.find(file.second.replaces_segment_id);
          if (src == files.end() || src->second.second.tier != 0) continue;
          ASSERT_TRUE(rot_sparse_record(src->second.first));
          const ScrubReport rep = st->scrub();
          EXPECT_GE(rep.chunks_repaired, 1u);
          repaired = true;
          break;
        }
      }
      ASSERT_TRUE(repaired);
      expect_index_matches_reference(*st, rng, step("scrub, shadow repair"));
    }

    st.reset();
    cfg.io = nullptr;
    st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    expect_index_matches_reference(*st, rng, step("reopen"));
    for (int e = 0; e < 6; ++e) run_epoch(*st, /*maintain=*/true);
  }
}

// --- crash recovery ---------------------------------------------------------

TEST(StoreRecovery, TruncationSweepRecoversSealedPrefix) {
  TempDir dir("sweep");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;
  cfg.segment_epochs = 100;  // keep one segment so the sweep has one file
  const FlowKey f = make_flow(1);
  // Epoch e writes window e with value 100*e, then marks window e lost for
  // even e — recovery must restore both values and flags of every sealed
  // epoch.
  constexpr int kEpochs = 6;
  {
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    for (int e = 1; e <= kEpochs; ++e) {
      st->append_sparse(f, std::vector<std::pair<WindowId, double>>{
                               {e, 100.0 * e}});
      if (e % 2 == 0) {
        st->mark_confidence(e, e + 1, WindowConfidence::kLost);
      }
      ASSERT_TRUE(st->seal_epoch());
    }
  }
  const std::string seg_path = dir.path + "/" + segment_file_name(1, 0);
  const auto full = read_file(seg_path);
  ASSERT_GT(full.size(), kSegmentHeaderBytes);

  // Sample every truncation length (coarse stride + the interesting
  // boundaries): the recovered store must always be a sealed prefix.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < full.size(); n += 13) cuts.push_back(n);
  cuts.push_back(full.size() - 1);
  cuts.push_back(kSegmentHeaderBytes);
  cuts.push_back(kSegmentHeaderBytes + 1);

  for (const std::size_t cut : cuts) {
    TempDir crash("sweep_cut");
    {
      std::ofstream out(crash.path + "/" + segment_file_name(1, 0),
                        std::ios::binary);
      out.write(reinterpret_cast<const char*>(full.data()),
                static_cast<std::streamsize>(cut));
    }
    StoreConfig ccfg = cfg;
    ccfg.dir = crash.path;
    RecoveryInfo ri;
    auto st = Store::open(ccfg, &ri);
    ASSERT_NE(st, nullptr) << "cut at " << cut;

    // Store epochs are 0-based: a recovered last_sealed_epoch of N means
    // N + 1 of the test's logical epochs survived.
    const int sealed = ri.last_sealed_epoch.has_value()
                           ? static_cast<int>(*ri.last_sealed_epoch) + 1
                           : 0;
    ASSERT_LE(sealed, kEpochs) << "cut at " << cut;
    if (cut >= full.size()) {
      EXPECT_EQ(sealed, kEpochs);
    }

    // Exactly the windows of sealed epochs, nothing torn, nothing extra.
    QueryEngine engine(*st);
    Query q;
    q.from = 0;
    q.to = kEpochs + 1;
    const QueryResult r = engine.run(q);
    double want = 0;
    for (int e = 1; e <= sealed; ++e) want += 100.0 * e;
    double have = 0;
    for (double v : r.series) have += v;
    EXPECT_DOUBLE_EQ(have, want) << "cut at " << cut;

    for (int e = 2; e <= kEpochs; e += 2) {
      const WindowConfidence conf = st->worst_confidence(
          static_cast<WindowId>(e), static_cast<WindowId>(e) + 1);
      if (e <= sealed) {
        EXPECT_EQ(conf, WindowConfidence::kLost) << "cut " << cut << " e " << e;
      } else {
        EXPECT_EQ(conf, WindowConfidence::kCovered)
            << "cut " << cut << " e " << e;
      }
    }

    // The recovered store must be writable again: a post-crash epoch seals
    // on top of the truncated file.
    st->append_sparse(f, std::vector<std::pair<WindowId, double>>{
                             {100, 7.0}});
    EXPECT_TRUE(st->seal_epoch()) << "cut at " << cut;
  }
}

// --- FlowCurveStore extent index (satellite regression) ---------------------

TEST(CurveStoreExtent, SparseFlowsShortCircuitEmptyRanges) {
  analyzer::FlowCurveStore fcs;
  constexpr std::uint32_t kFlows = 10000;
  constexpr WindowId kStrideWindows = 1000;  // gap between per-flow extents
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    analyzer::CurveFragment frag;
    frag.w0 = static_cast<WindowId>(i) * kStrideWindows;
    frag.bytes_per_window = {static_cast<double>(i + 1)};
    fcs.add(make_flow(i), std::move(frag));
  }
  ASSERT_EQ(fcs.flow_count(), kFlows);

  // Every flow's cached extent is its single window; ranges strictly
  // outside it come back all-zero without touching the window map.
  for (std::uint32_t i = 0; i < kFlows; i += 97) {
    const FlowKey f = make_flow(i);
    WindowId first = 0, last = 0;
    ASSERT_TRUE(fcs.extent(f, first, last));
    EXPECT_EQ(first, static_cast<WindowId>(i) * kStrideWindows);
    EXPECT_EQ(last, first);

    const auto before = fcs.range(f, first - 500, first);
    for (double v : before) EXPECT_EQ(v, 0.0);
    const auto after = fcs.range(f, last + 1, last + 500);
    for (double v : after) EXPECT_EQ(v, 0.0);
    const auto hit = fcs.range(f, first, last + 1);
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_EQ(hit[0], static_cast<double>(i + 1));
  }

  // Accumulation keeps the extent honest (out-of-order inserts included).
  const FlowKey f = make_flow(0);
  fcs.add_sparse(f, std::vector<std::pair<WindowId, double>>{{5, 1.0}});
  fcs.add_sparse(f, std::vector<std::pair<WindowId, double>>{{2, 1.0}});
  WindowId first = 0, last = 0;
  ASSERT_TRUE(fcs.extent(f, first, last));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, 5);
}

// --- determinism ------------------------------------------------------------

TEST(StoreDeterminism, SameSeedSameBytes) {
  TempDir da("det_a"), db("det_b");
  for (const std::string& d : {da.path, db.path}) {
    StoreConfig cfg;
    cfg.dir = d;
    cfg.segment_epochs = 2;
    cfg.tier1_age_epochs = 2;
    cfg.tier2_age_epochs = 4;
    auto st = Store::open(cfg);
    ASSERT_NE(st, nullptr);
    analyzer::FlowCurveStore fcs;
    fcs.set_sink(st.get());
    run_synthetic(fcs, st.get(), /*seed=*/99, /*epochs=*/8, /*flows=*/10);
    st->maintain();
  }
  // Same inputs, same bytes — segment by segment.
  DIR* d = ::opendir(da.path.c_str());
  ASSERT_NE(d, nullptr);
  std::size_t files = 0;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    ++files;
    const auto a = read_file(da.path + "/" + name);
    const auto b = read_file(db.path + "/" + name);
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
  }
  ::closedir(d);
  EXPECT_GT(files, 1u);
}

TEST(StoreConcurrency, WriterSealerQueriesAndMaintainShareOneStore) {
  // One writer+sealer thread (the store's single-appender invariant), two
  // query threads, and a compaction thread hammer the same Store. A tiny
  // page size plus a small clean budget force constant cache churn, and
  // segment_epochs=4 with aggressive tier ages makes seals, rolls, and
  // compactions all happen while queries are in flight — the exact window
  // the split-seal (fsync outside the store lock) opens up. Run under TSan
  // in CI via `ctest -R "_concurrency$"`.
  TempDir dir("concurrency");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.page_bytes = 256;
  cfg.cache_budget_bytes = 4096;
  cfg.segment_epochs = 4;
  cfg.tier1_age_epochs = 6;
  cfg.tier2_age_epochs = 12;
  auto st = Store::open(cfg);
  ASSERT_NE(st, nullptr);

  constexpr int kEpochs = 48;
  constexpr int kFlows = 8;
  // Release/acquire pair "store-concurrency-stop" (see the [pairs] ledger
  // in tools/sca/atomics_policy.txt): the writer publishes completion, the
  // reader threads' acquire loads make every append it did visible to the
  // final consistency check below.
  std::atomic<bool> stop{false};
  // Each of the three readers finishes one full pass before the writer's
  // last epoch, so every reader overlaps the writer even when the scheduler
  // starts it late (a loaded machine can otherwise run all 48 epochs before
  // a reader's first pass).
  std::latch readers_ran(3);

  std::thread writer([&] {
    for (int e = 0; e < kEpochs; ++e) {
      if (e == kEpochs - 1) readers_ran.wait();
      for (int i = 0; i < kFlows; ++i) {
        st->append_sparse(make_flow(static_cast<std::uint32_t>(i)),
                          std::vector<std::pair<WindowId, double>>{
                              {e, static_cast<double>(i + 1)}});
      }
      // One new flow key per epoch: the sorted flow index grows while the
      // readers below walk it.
      st->append_sparse(make_flow(static_cast<std::uint32_t>(kFlows + e)),
                        std::vector<std::pair<WindowId, double>>{{e, 1.0}});
      EXPECT_TRUE(st->seal_epoch());
    }
    stop.store(true, std::memory_order_release);
  });

  auto query_loop = [&] {
    QueryEngine engine(*st);
    std::uint64_t runs = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Query q;
      q.from = 0;
      q.to = kEpochs + 1;
      const QueryResult r = engine.run(q);
      // Sums only grow: every value the writer sealed stays visible.
      double total = 0;
      for (double v : r.series) total += v;
      EXPECT_GE(total, 0.0);
      if (++runs == 1) readers_ran.count_down();
    }
    EXPECT_GT(runs, 0u);
  };
  std::thread q1(query_loop);
  std::thread q2(query_loop);

  // The serve miss path: the response head (flow count, last seal), the
  // extents, the flow list, and aggregate queries through visit_flows.
  std::thread head_reader([&] {
    QueryEngine engine(*st);
    std::uint64_t reads = 0;
    std::size_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t count = st->flow_count();
      (void)st->last_sealed_epoch();
      const std::vector<FlowKey> keys = st->flows();
      EXPECT_GE(count, last_count);  // keys are never erased
      EXPECT_GE(keys.size(), count);
      last_count = count;
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end(),
                                 [](const FlowKey& a, const FlowKey& b) {
                                   return a.packed() < b.packed();
                                 }));
      WindowId first = 0, last = 0;
      if (st->curve_extent(first, last)) {
        // Nothing is removed here, so the extent only widens.
        WindowId wfirst = 0, wlast = 0;
        EXPECT_TRUE(st->window_extent(wfirst, wlast));
        EXPECT_LE(wfirst, first);
        EXPECT_GE(wlast, last);
        Query q;
        q.from = first;
        q.to = last + 1;
        q.resolution = 4;
        q.op = GroupOp::kMax;
        EXPECT_FALSE(engine.run(q).series.empty());
        q.src_host = make_flow(3).src_ip;
        q.op = GroupOp::kSum;
        (void)engine.run(q);
      }
      if (++reads == 1) readers_ran.count_down();
    }
    EXPECT_GT(reads, 0u);
  });

  std::thread compactor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)st->maintain();
    }
  });

  writer.join();
  q1.join();
  q2.join();
  head_reader.join();
  compactor.join();

  // Volume is conserved across seals, rolls, and tier rewrites: per epoch
  // the writer appends 1+2+...+kFlows plus 1 for the epoch's new flow, over
  // kEpochs epochs.
  QueryEngine engine(*st);
  Query q;
  q.from = 0;
  q.to = kEpochs + 1;
  const QueryResult r = engine.run(q);
  double total = 0;
  for (double v : r.series) total += v;
  const double want = static_cast<double>(kEpochs) *
                      (kFlows * (kFlows + 1) / 2.0 + 1.0);
  EXPECT_DOUBLE_EQ(total, want);
  EXPECT_EQ(st->flow_count(), static_cast<std::size_t>(kFlows + kEpochs));
}

}  // namespace
}  // namespace umon::store
