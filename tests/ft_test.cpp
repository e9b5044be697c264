// umon::ft tests: the injectable file-I/O shim (FaultyIo), the failed-seal
// regression (a lying fsync must never mark pages clean or commit the
// seal), scrub/quarantine/read-repair behavior, the compactor's refusal to
// rewrite a segment whose scan stops at rot, and the crash-torture
// harness that kills a store workload at sampled I/O points and asserts
// recovery never serves a wrong byte as covered.

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/curve_store.hpp"
#include "resilience/fault_plan.hpp"
#include "store/io.hpp"
#include "store/page_cache.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"

namespace umon::store {
namespace {

using analyzer::WindowConfidence;
using resilience::FaultPlan;

/// Self-cleaning scratch directory under the build tree.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "./ft_test_%s_%d", tag.c_str(),
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

FaultPlan plan_of(const std::string& text) {
  std::istringstream in(text);
  std::string err;
  auto plan = FaultPlan::parse(in, &err);
  EXPECT_TRUE(plan.has_value()) << err;
  return plan.value_or(FaultPlan{});
}

FlowKey make_flow(std::uint32_t i) {
  return FlowKey{10u * 65536u + i, 20u * 65536u + (i % 7),
                 static_cast<std::uint16_t>(1000 + i),
                 static_cast<std::uint16_t>(80), 6};
}

off_t real_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

// --- FaultyIo shim ----------------------------------------------------------

TEST(FaultyIo, FailsPlannedWriteWithPlannedErrno) {
  TempDir dir("io_fail");
  FaultyIo io(plan_of("disk-fail op=write nth=2 errno=enospc\n"));
  const std::string path = dir.path + "/f";
  const int fd = io.open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  const char buf[8] = "payload";
  EXPECT_EQ(io.pwrite(fd, buf, sizeof buf, 0),
            static_cast<ssize_t>(sizeof buf));
  errno = 0;
  EXPECT_EQ(io.pwrite(fd, buf, sizeof buf, 8), -1);
  EXPECT_EQ(errno, ENOSPC);
  // The planned occurrence is consumed: the third pwrite succeeds.
  EXPECT_EQ(io.pwrite(fd, buf, sizeof buf, 8),
            static_cast<ssize_t>(sizeof buf));
  io.close(fd);
  EXPECT_EQ(io.stats().write_errors, 1u);
  EXPECT_EQ(io.stats().pwrites, 3u);
}

TEST(FaultyIo, ShortWriteLandsOnlyPlannedBytes) {
  TempDir dir("io_short");
  FaultyIo io(plan_of("disk-short nth=1 bytes=3\n"));
  const std::string path = dir.path + "/f";
  const int fd = io.open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  const char buf[8] = "payload";
  EXPECT_EQ(io.pwrite(fd, buf, sizeof buf, 0), 3);
  io.close(fd);
  EXPECT_EQ(real_size(path), 3);
  EXPECT_EQ(io.stats().short_writes, 1u);
}

TEST(FaultyIo, FsyncLiesOnceAndDropsUnsyncedBytes) {
  TempDir dir("io_fsync");
  FaultyIo io(plan_of("disk-fail op=fsync nth=2\n"));
  const std::string path = dir.path + "/f";
  const int fd = io.open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  const char buf[8] = "payload";
  ASSERT_EQ(io.pwrite(fd, buf, sizeof buf, 0),
            static_cast<ssize_t>(sizeof buf));
  ASSERT_EQ(io.fsync(fd), 0);  // 8 bytes durable

  ASSERT_EQ(io.pwrite(fd, buf, sizeof buf, 8),
            static_cast<ssize_t>(sizeof buf));
  errno = 0;
  EXPECT_EQ(io.fsync(fd), -1);  // lies once: the new 8 bytes are gone
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(real_size(path), 8);
  EXPECT_EQ(io.stats().dropped_bytes, 8u);

  // A later fsync succeeds again — the classic retry-and-proceed trap: the
  // dropped bytes do NOT come back.
  EXPECT_EQ(io.fsync(fd), 0);
  EXPECT_EQ(real_size(path), 8);
  io.close(fd);
  EXPECT_EQ(io.stats().fsync_failures, 1u);
}

TEST(FaultyIo, CorruptionIsSeededAndDeterministic) {
  std::vector<std::uint8_t> flipped[2];
  for (int run = 0; run < 2; ++run) {
    TempDir dir("io_rot");
    FaultyIo io(plan_of("seed 42\ndisk-corrupt seal=1 bits=4\n"));
    const std::string path = dir.path + "/f";
    const int fd = io.open(path.c_str(), O_CREAT | O_RDWR, 0644);
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> body(kSegmentHeaderBytes + 64, 0);
    ASSERT_EQ(io.pwrite(fd, body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
    ASSERT_EQ(io.fsync(fd), 0);  // triggers the planned rot
    EXPECT_EQ(io.stats().corruptions, 1u);
    EXPECT_EQ(io.stats().bits_flipped, 4u);
    std::vector<std::uint8_t> back(body.size(), 0);
    ASSERT_EQ(::pread(fd, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    io.close(fd);
    // The fixed header is spared; only body bits flip.
    for (std::size_t i = 0; i < kSegmentHeaderBytes; ++i) {
      ASSERT_EQ(back[i], 0u) << "header byte " << i << " was corrupted";
    }
    flipped[run] = back;
  }
  EXPECT_EQ(flipped[0], flipped[1]) << "same seed must flip the same bits";
}

// --- satellite 1: a failed fsync must never mark pages clean ----------------

TEST(FtSealFailure, FailedFinishFsyncLeavesPagesDirty) {
  TempDir dir("finish_dirty");
  FaultyIo io(plan_of("disk-fail op=fsync nth=1\n"));
  PageCacheConfig pcfg;
  pcfg.io = &io;
  PageCache cache(pcfg);
  SegmentHeader header;
  header.segment_id = 1;
  SegmentWriter w(dir.path + "/seg-00000001-t0.useg", header, &cache, 1,
                  /*fsync_on_seal=*/true, &io);
  ASSERT_TRUE(w.ok());
  SparseCurveRecord rec;
  rec.flow = make_flow(1);
  rec.windows = {{100, 1.0}};
  w.append_sparse(0, rec, WindowConfidence::kCovered);
  ASSERT_GT(cache.stats().dirty_pages, 0u);

  // finish() flushes the tail and fsyncs; the fsync lies. Pre-fix the
  // writer marked the file's pages clean unconditionally, letting eviction
  // replace acknowledged bytes with whatever the failed disk kept.
  EXPECT_FALSE(w.finish());
  EXPECT_GT(cache.stats().dirty_pages, 0u)
      << "pages were marked clean although their bytes never became durable";
}

TEST(FtSealFailure, FailedSealRecoversToPreviousDurableSeal) {
  TempDir dir("seal_fail");
  FaultyIo io(plan_of("disk-fail op=fsync nth=2\n"));
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.tier1_age_epochs = 0;
  cfg.io = &io;
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);

  const FlowKey flow = make_flow(1);
  const std::vector<std::pair<WindowId, double>> epoch0 = {{10, 1.0},
                                                           {11, 2.0}};
  store->append_sparse(flow, epoch0);
  ASSERT_TRUE(store->seal_epoch());  // fsync #1: durable

  const std::vector<std::pair<WindowId, double>> epoch1 = {{20, 3.0}};
  store->append_sparse(flow, epoch1);
  EXPECT_FALSE(store->seal_epoch());  // fsync #2 lies: seal must fail
  EXPECT_EQ(store->stats().seal_failures, 1u);
  EXPECT_EQ(store->last_sealed_epoch(), std::optional<std::uint32_t>(0));

  // The store reconciled with the disk: epoch-0 windows still served
  // byte-correct, the lost epoch-1 windows flagged, never served.
  std::map<WindowId, double> seen;
  store->visit_flow(flow, 0, 1000, [&](const ChunkView& v) {
    ASSERT_NE(v.sparse, nullptr);
    for (const auto& [w, val] : v.sparse->windows) seen[w] += val;
  });
  EXPECT_EQ(seen, (std::map<WindowId, double>{{10, 1.0}, {11, 2.0}}));
  EXPECT_EQ(store->worst_confidence(20, 21), WindowConfidence::kLost);
  EXPECT_EQ(store->worst_confidence(10, 12), WindowConfidence::kCovered);

  // The writer rolled off the damaged file; later epochs seal fine.
  store->append_sparse(flow, epoch1);
  EXPECT_TRUE(store->seal_epoch());
  store.reset();

  // A fresh recovery (real io) agrees with the failed-seal reconciliation.
  StoreConfig rcfg;
  rcfg.dir = dir.path;
  rcfg.tier1_age_epochs = 0;
  RecoveryInfo rinfo;
  auto back = Store::open(rcfg, &rinfo);
  ASSERT_NE(back, nullptr);
  std::map<WindowId, double> recovered;
  back->visit_flow(flow, 0, 1000, [&](const ChunkView& v) {
    ASSERT_NE(v.sparse, nullptr);
    for (const auto& [w, val] : v.sparse->windows) recovered[w] += val;
  });
  EXPECT_EQ(recovered, (std::map<WindowId, double>{
                           {10, 1.0}, {11, 2.0}, {20, 3.0}}));
}

// --- scrub / quarantine / read-repair ---------------------------------------

/// Flip one payload byte of the `nth` (0-based) record of `kind` in the
/// segment at `path`, bypassing every cache (latent media rot).
bool flip_payload_byte(const std::string& path, RecordKind kind,
                       int nth = 0) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return false;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  std::uint64_t pos = kSegmentHeaderBytes;
  bool done = false;
  while (!done && pos + kRecordHeaderBytes <= static_cast<std::uint64_t>(size)) {
    std::uint8_t raw[kRecordHeaderBytes];
    RecordHeader rh;
    if (::pread(fd, raw, sizeof raw, static_cast<off_t>(pos)) !=
            static_cast<ssize_t>(sizeof raw) ||
        !decode_record_header(std::span<const std::uint8_t>(raw, sizeof raw),
                              rh)) {
      break;
    }
    if (rh.kind == static_cast<std::uint8_t>(kind) && rh.payload_len > 0 &&
        nth-- == 0) {
      std::uint8_t b = 0;
      const off_t off = static_cast<off_t>(pos + kRecordHeaderBytes);
      if (::pread(fd, &b, 1, off) != 1) break;
      b ^= 0xFF;
      if (::pwrite(fd, &b, 1, off) != 1) break;
      done = true;
    }
    pos += kRecordHeaderBytes + rh.payload_len;
  }
  ::close(fd);
  return done;
}

TEST(FtScrub, CleanStoreScansClean) {
  TempDir dir("scrub_clean");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 1;  // every seal rolls -> sealed, scannable segments
  cfg.tier1_age_epochs = 0;
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);
  for (int e = 0; e < 3; ++e) {
    const std::vector<std::pair<WindowId, double>> w = {
        {static_cast<WindowId>(e * 8), 1.0 + static_cast<double>(e)}};
    store->append_sparse(make_flow(1), w);
    ASSERT_TRUE(store->seal_epoch());
  }
  const ScrubReport rep = store->scrub();
  EXPECT_EQ(rep.segments_scanned, 3u);
  EXPECT_GT(rep.records_verified, 0u);
  EXPECT_EQ(rep.corrupt_records, 0u);
  EXPECT_EQ(rep.chunks_quarantined, 0u);
  EXPECT_TRUE(rep.findings.empty());
  EXPECT_EQ(store->stats().scrub_passes, 1u);
}

TEST(FtScrub, QuarantinesCorruptRecordAndFlagsWindowsLost) {
  TempDir dir("scrub_rot");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 1;
  cfg.tier1_age_epochs = 0;
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);
  const FlowKey good = make_flow(1);
  const FlowKey victim = make_flow(2);
  store->append_sparse(good, {{{10, 1.0}}});
  ASSERT_TRUE(store->seal_epoch());
  store->append_sparse(victim, {{{20, 5.0}, {21, 6.0}}});
  ASSERT_TRUE(store->seal_epoch());

  // Rot the victim's record in segment 2 behind the page cache's back.
  ASSERT_TRUE(flip_payload_byte(dir.path + "/seg-00000002-t0.useg",
                                RecordKind::kSparseCurve));

  const std::uint64_t gen_before = store->generation();
  const ScrubReport rep = store->scrub();
  EXPECT_EQ(rep.corrupt_records, 1u);
  EXPECT_EQ(rep.chunks_quarantined, 1u);
  EXPECT_EQ(rep.chunks_repaired, 0u);  // no shadow: the windows are lost
  EXPECT_EQ(rep.windows_lost, 2u);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].segment_id, 2u);
  EXPECT_GT(store->generation(), gen_before);

  // The quarantined chunk is never served again; its windows read as lost.
  std::map<WindowId, double> seen;
  store->visit_flow(victim, 0, 1000, [&](const ChunkView& v) {
    if (v.sparse == nullptr) return;
    for (const auto& [w, val] : v.sparse->windows) seen[w] += val;
  });
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(store->worst_confidence(20, 22), WindowConfidence::kLost);

  // The untouched flow still reads byte-correct.
  std::map<WindowId, double> ok;
  store->visit_flow(good, 0, 1000, [&](const ChunkView& v) {
    ASSERT_NE(v.sparse, nullptr);
    for (const auto& [w, val] : v.sparse->windows) ok[w] += val;
  });
  EXPECT_EQ(ok, (std::map<WindowId, double>{{10, 1.0}}));

  // A second pass over the already-quarantined store reports the same rot
  // on disk but has nothing further to quarantine.
  const ScrubReport again = store->scrub();
  EXPECT_EQ(again.corrupt_records, 1u);
  EXPECT_EQ(again.chunks_quarantined, 0u);
}

TEST(FtScrub, ReadRepairPromotesCoarserShadowCopy) {
  TempDir dir("scrub_repair");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 1;
  cfg.tier1_age_epochs = 2;
  cfg.tier2_age_epochs = 1000;
  cfg.repair_grace_epochs = 100;  // keep the exact source as a shadow donor
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);
  const FlowKey flow = make_flow(3);
  std::vector<std::pair<WindowId, double>> windows;
  for (WindowId w = 0; w < 32; ++w) {
    windows.emplace_back(w, static_cast<double>(1 + (w % 5)));
  }
  store->append_sparse(flow, windows);
  ASSERT_TRUE(store->seal_epoch());
  // Age the tier-0 segment past tier1_age_epochs, then compact: with a
  // repair grace the coarse tier-1 copy is registered as a shadow while the
  // exact source keeps serving.
  for (int e = 0; e < 3; ++e) {
    store->append_sparse(make_flow(9), {{{500 + e, 1.0}}});
    ASSERT_TRUE(store->seal_epoch());
  }
  ASSERT_GT(store->maintain(), 0u);

  // Rot the exact copy. Scrub must quarantine it and promote the coarse
  // shadow instead of losing the windows.
  ASSERT_TRUE(flip_payload_byte(dir.path + "/seg-00000001-t0.useg",
                                RecordKind::kSparseCurve));
  const ScrubReport rep = store->scrub();
  EXPECT_GE(rep.corrupt_records, 1u);
  EXPECT_GE(rep.chunks_quarantined, 1u);
  EXPECT_GE(rep.chunks_repaired, 1u);
  EXPECT_EQ(rep.windows_lost, 0u);
  EXPECT_EQ(store->stats().chunks_repaired, rep.chunks_repaired);

  // The flow still answers — from the promoted coarse chunk — and the
  // repaired windows are downgraded to gap_filled, not lost.
  bool served_coeff = false;
  store->visit_flow(flow, 0, 64, [&](const ChunkView& v) {
    if (v.coeff != nullptr) {
      served_coeff = true;
      EXPECT_EQ(v.confidence, WindowConfidence::kGapFilled);
    }
  });
  EXPECT_TRUE(served_coeff);
  EXPECT_EQ(store->worst_confidence(0, 32), WindowConfidence::kGapFilled);
}

TEST(FtScrub, VisitFlowQuarantinesRotItFindsInline) {
  TempDir dir("visit_rot");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 1;
  cfg.tier1_age_epochs = 0;
  // Zero clean-page budget: the seal's mark_clean evicts every page, so
  // the next query must pread from disk — where the rot lives.
  cfg.cache_budget_bytes = 0;
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);
  store->append_sparse(make_flow(4), {{{40, 7.0}}});
  ASSERT_TRUE(store->seal_epoch());
  ASSERT_TRUE(flip_payload_byte(dir.path + "/seg-00000001-t0.useg",
                                RecordKind::kSparseCurve));

  // The index still points at the chunk (it was sealed clean), but the
  // query path re-reads the now-rotten bytes. The CRC re-check refuses to
  // serve them and quarantines the chunk inline.
  std::size_t chunks_served = 0;
  store->visit_flow(make_flow(4), 0, 1000,
                    [&](const ChunkView&) { ++chunks_served; });
  EXPECT_EQ(chunks_served, 0u);
  EXPECT_EQ(store->stats().chunks_quarantined, 1u);
  EXPECT_EQ(store->worst_confidence(40, 41), WindowConfidence::kLost);
}

TEST(FtScrub, CompactionRefusesSegmentWithRotMidway) {
  TempDir dir("compact_rot");
  StoreConfig cfg;
  cfg.dir = dir.path;
  cfg.segment_epochs = 2;
  cfg.tier1_age_epochs = 2;
  cfg.tier2_age_epochs = 1000;
  // Zero clean-page budget: the compactor's scan re-reads the rotten page
  // from disk instead of the good copy the seal left in the cache.
  cfg.cache_budget_bytes = 0;
  auto store = Store::open(cfg);
  ASSERT_NE(store, nullptr);
  // Segment 1 holds two epochs of three flows each; flow 4's record (the
  // fifth) is the one that rots.
  constexpr std::uint32_t kVictim = 4;
  for (std::uint32_t f = 0; f < 6; ++f) {
    const std::vector<std::pair<WindowId, double>> w = {
        {static_cast<WindowId>(10 * f), 100.0 + f},
        {static_cast<WindowId>(10 * f + 1), 7.0}};
    store->append_sparse(make_flow(f), w);
    if (f % 3 == 2) {
      ASSERT_TRUE(store->seal_epoch());
    }
  }
  ASSERT_TRUE(flip_payload_byte(dir.path + "/seg-00000001-t0.useg",
                                RecordKind::kSparseCurve, kVictim));
  // Age segment 1 past tier1_age_epochs.
  for (int e = 0; e < 3; ++e) {
    store->append_sparse(make_flow(9), {{{500 + e, 1.0}}});
    ASSERT_TRUE(store->seal_epoch());
  }

  // The scan stops at the bad frame, short of the segment's sealed bytes:
  // compacting would drop every record past it without a kLost mark.
  store->maintain();
  EXPECT_GT(real_size(dir.path + "/seg-00000001-t0.useg"), 0)
      << "the short-scanned source must stay on disk, uncompacted";
  for (std::uint32_t f = 0; f < 6; ++f) {
    if (f == kVictim) continue;
    double volume = 0;
    store->visit_flow(make_flow(f), 0, 1000, [&](const ChunkView& v) {
      ASSERT_NE(v.sparse, nullptr) << "flow " << f << " was compacted";
      for (const auto& [w, val] : v.sparse->windows) volume += val;
    });
    EXPECT_EQ(volume, 107.0 + f) << "flow " << f;
  }

  // The refusal is remembered: a later pass does not re-read the segment.
  const std::uint64_t misses = store->stats().cache.misses;
  store->maintain();
  EXPECT_EQ(store->stats().cache.misses, misses);

  // Scrub remains the path that quarantines the rot.
  const ScrubReport rep = store->scrub();
  EXPECT_EQ(rep.chunks_quarantined, 1u);
  EXPECT_EQ(store->worst_confidence(10 * kVictim, 10 * kVictim + 2),
            WindowConfidence::kLost);
}

// --- crash-torture harness --------------------------------------------------

/// Deterministic per-(seed, epoch, flow, k) window value.
double torture_value(unsigned seed, int epoch, int flow, int k) {
  return static_cast<double>(1 + (seed * 131 + static_cast<unsigned>(
                                      epoch * 31 + flow * 7 + k)) % 997);
}

constexpr int kTortureEpochs = 6;
constexpr int kTortureFlows = 3;
constexpr int kTortureWindowsPerEpoch = 4;

/// The workload each kill point interrupts: append + seal 6 epochs across
/// 3 flows through `io`. Returns false when the store failed to open.
bool torture_workload(const std::string& dir, unsigned seed, FileIo* io) {
  StoreConfig cfg;
  cfg.dir = dir;
  cfg.segment_epochs = 2;
  cfg.tier1_age_epochs = 0;
  cfg.io = io;
  auto store = Store::open(cfg);
  if (store == nullptr) return false;
  for (int e = 0; e < kTortureEpochs; ++e) {
    for (int f = 0; f < kTortureFlows; ++f) {
      std::vector<std::pair<WindowId, double>> w;
      for (int k = 0; k < kTortureWindowsPerEpoch; ++k) {
        w.emplace_back(e * kTortureWindowsPerEpoch + k,
                       torture_value(seed, e, f, k));
      }
      store->append_sparse(make_flow(static_cast<std::uint32_t>(f)), w);
    }
    (void)store->seal_epoch();
  }
  return true;
}

TEST(FtTorture, KilledAtSampledIoPointsNeverServesWrongBytes) {
  // Count the workload's mutating ops once to place the kill points.
  std::uint64_t total_ops = 0;
  {
    TempDir ref("torture_ref");
    FaultyIo counter{FaultPlan{}};
    ASSERT_TRUE(torture_workload(ref.path, 42, &counter));
    total_ops = counter.mutating_ops();
  }
  ASSERT_GT(total_ops, 6u);

  for (unsigned seed = 42; seed <= 49; ++seed) {
    // ~6 points spread over the run, ends included: the first mutating op,
    // the last, and evenly spaced interior points.
    std::vector<std::uint64_t> kill_points = {1, total_ops};
    for (int i = 1; i <= 4; ++i) {
      kill_points.push_back(1 + (total_ops - 1) * i / 5);
    }
    for (const std::uint64_t at : kill_points) {
      TempDir dir("torture_s" + std::to_string(seed) + "_k" +
                  std::to_string(at));
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: run the workload under the abort plan. _exit keeps gtest
        // and TempDir destructors from running twice.
        std::ostringstream plan;
        plan << "seed " << seed << "\ndisk-abort nth=" << at << "\n";
        FaultyIo io(plan_of(plan.str()));
        torture_workload(dir.path, seed, &io);
        ::_exit(0);  // plan exhausted before the op count: clean finish
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_TRUE(WEXITSTATUS(status) == kDiskAbortExitCode ||
                  WEXITSTATUS(status) == 0)
          << "seed " << seed << " kill@" << at << " exited "
          << WEXITSTATUS(status);

      // Recover with the real io. The store must open, and every window it
      // serves as covered must be byte-correct against the reference.
      StoreConfig cfg;
      cfg.dir = dir.path;
      cfg.tier1_age_epochs = 0;
      RecoveryInfo rinfo;
      auto store = Store::open(cfg, &rinfo);
      ASSERT_NE(store, nullptr) << "seed " << seed << " kill@" << at
                                << ": recovery failed";
      for (int f = 0; f < kTortureFlows; ++f) {
        std::map<WindowId, double> seen;
        store->visit_flow(make_flow(static_cast<std::uint32_t>(f)), 0, 1000,
                          [&](const ChunkView& v) {
                            if (v.sparse == nullptr) return;
                            for (const auto& [w, val] : v.sparse->windows) {
                              seen[w] += val;
                            }
                          });
        for (const auto& [w, val] : seen) {
          const int e = static_cast<int>(w / kTortureWindowsPerEpoch);
          const int k = static_cast<int>(w % kTortureWindowsPerEpoch);
          if (store->worst_confidence(w, w + 1) != WindowConfidence::kCovered) {
            continue;  // flagged: the store already disclosed the damage
          }
          EXPECT_EQ(val, torture_value(seed, e, f, k))
              << "seed " << seed << " kill@" << at << " flow " << f
              << " window " << w << " served a wrong byte as covered";
        }
      }
    }
  }
}

}  // namespace
}  // namespace umon::store
