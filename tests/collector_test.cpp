// umon::collector — the sharded ingest pipeline between host uplinks and the
// analyzer. Covers: wire-path equivalence with direct in-process ingest,
// multi-epoch stitching, sequence-gap loss accounting, malformed-payload
// handling, both shedding policies, the mirror path, and (under TSan via the
// collector_concurrency ctest entry) multi-producer thread safety. The lossy
// end-to-end test replays one recorded fat-tree run through the simulated
// upload channel at increasing loss rates.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/analyzer.hpp"
#include "analyzer/groundtruth.hpp"
#include "analyzer/metrics.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "netsim/network.hpp"
#include "netsim/upload_channel.hpp"
#include "sketch/serialize.hpp"
#include "sketch/wavesketch_full.hpp"
#include "wavelet/haar.hpp"
#include "workload/generator.hpp"

namespace umon::collector {
namespace {

FlowKey flow(std::uint32_t id) {
  FlowKey f;
  f.src_ip = 0x0A000000u | id;
  f.dst_ip = 0x0A0000FE;
  f.src_port = static_cast<std::uint16_t>(7000 + id);
  f.dst_port = 4791;
  f.proto = 17;
  return f;
}

/// A flow-tagged report whose reconstruction is exact: levels=0 stores the
/// raw series as approximation coefficients.
sketch::TaggedReport make_report(const FlowKey& f, WindowId w0,
                                 std::vector<Count> values) {
  sketch::TaggedReport t;
  t.flow = f;
  t.report.w0 = w0;
  t.report.length = static_cast<std::uint32_t>(values.size());
  t.report.levels = 0;
  values.resize(wavelet::next_pow2(t.report.length), 0);
  t.report.approx = std::move(values);
  return t;
}

sketch::WaveSketchParams sketch_params() {
  sketch::WaveSketchParams p;
  p.depth = 2;
  p.width = 32;
  p.levels = 4;
  p.k = 512;  // lossless
  p.heavy_rows = 16;
  return p;
}

TEST(Collector, PipelineMatchesDirectIngest) {
  // Feed two identical sketches; ingest one directly, push the other through
  // uplink encode -> collector decode. The stitched curves must agree.
  sketch::WaveSketchFull direct_sk(sketch_params());
  sketch::WaveSketchFull wire_sk(sketch_params());
  for (std::uint32_t id = 1; id <= 3; ++id) {
    for (WindowId w = 100; w < 160; ++w) {
      const Count v = 1000 * id + (w % 7) * 10;
      direct_sk.update_window(flow(id), w, v);
      wire_sk.update_window(flow(id), w, v);
    }
  }

  analyzer::Analyzer direct_an;
  direct_an.ingest_host_sketch(0, direct_sk);

  analyzer::Analyzer wire_an;
  CollectorConfig cfg;
  cfg.shards = 2;
  Collector col(cfg, wire_an);
  col.start();
  HostUplink up(0, /*max_reports_per_payload=*/8);
  const auto upload = up.flush_epoch(wire_sk);
  std::size_t encoded_reports = 0;
  for (const auto& p : upload.payloads) {
    EXPECT_TRUE(col.submit_report_payload(0, upload.epoch, p.bytes));
    encoded_reports += p.reports;
  }
  EXPECT_EQ(encoded_reports, upload.reports);
  col.seal_epoch(0, upload.epoch, upload.end_seq);
  col.stop();

  const auto st = col.stats();
  EXPECT_EQ(st.reports_decoded, upload.reports);
  EXPECT_EQ(st.reports_lost, 0u);
  EXPECT_EQ(st.reports_shed, 0u);
  EXPECT_EQ(st.payloads_malformed, 0u);
  EXPECT_EQ(st.epochs_flushed, 1u);
  EXPECT_GT(st.fragments_ingested, 0u);

  // Both paths stitch exactly the elected heavy flows (a flow that lost its
  // slot to a hash collision is absent from both sides alike).
  const auto heavy = direct_sk.heavy_flows();
  ASSERT_GE(heavy.size(), 2u);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    const bool is_heavy =
        std::find(heavy.begin(), heavy.end(), flow(id)) != heavy.end();
    const analyzer::RateCurve want = direct_an.query_rate(flow(id));
    const analyzer::RateCurve got = wire_an.query_rate(flow(id));
    ASSERT_EQ(want.empty(), !is_heavy) << "flow " << id;
    ASSERT_EQ(got.empty(), !is_heavy) << "flow " << id;
    for (WindowId w = 95; w < 165; ++w) {
      EXPECT_NEAR(got.bytes_at(w), want.bytes_at(w), 1e-6)
          << "flow " << id << " window " << w;
    }
  }
  // Byte accounting reaches the analyzer per host. The collector's tally is
  // gross payload bytes; the analyzer's excludes the per-payload batch
  // framing (4-byte report count), so it is at most the collector's.
  EXPECT_GT(wire_an.report_bytes_from(0), 0u);
  EXPECT_LE(wire_an.report_bytes_from(0), st.bytes_by_host.at(0));
  EXPECT_GE(wire_an.report_bytes_from(0) +
                4 * upload.payloads.size(),
            st.bytes_by_host.at(0));
}

TEST(Collector, MultiEpochStitchingThroughWire) {
  // A flow spanning two measurement periods stitches into one continuous
  // curve after both epochs cross the wire (out of order, for good measure).
  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 2;
  Collector col(cfg, an);
  col.start();
  HostUplink up(3);

  sketch::WaveSketchFull sk(sketch_params());
  const FlowKey f = flow(1);
  for (WindowId w = 100; w < 150; ++w) sk.update_window(f, w, 1000);
  const auto e0 = up.flush_epoch(sk);
  for (WindowId w = 150; w < 200; ++w) sk.update_window(f, w, 2000);
  const auto e1 = up.flush_epoch(sk);

  for (const auto& p : e1.payloads) {
    ASSERT_TRUE(col.submit_report_payload(3, e1.epoch, p.bytes));
  }
  for (const auto& p : e0.payloads) {
    ASSERT_TRUE(col.submit_report_payload(3, e0.epoch, p.bytes));
  }
  col.seal_epoch(3, e0.epoch);
  col.seal_epoch(3, e1.epoch, e1.end_seq);
  col.stop();

  EXPECT_EQ(col.stats().reports_lost, 0u);
  EXPECT_EQ(col.stats().epochs_flushed, 2u);
  const analyzer::RateCurve c = an.query_rate(f);
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c.w0, 100);
  EXPECT_NEAR(c.bytes_at(120), 1000.0, 1e-6);
  EXPECT_NEAR(c.bytes_at(149), 1000.0, 1e-6);
  EXPECT_NEAR(c.bytes_at(150), 2000.0, 1e-6);
  EXPECT_NEAR(c.bytes_at(170), 2000.0, 1e-6);
}

TEST(Collector, SequenceGapsCountLostReports) {
  analyzer::Analyzer an;
  Collector col(CollectorConfig{}, an);
  col.start();

  // 7 reports in payloads of 2: [0,1] [2,3] [4,5] [6]. Drop the second and
  // the last — the trailing loss is only visible through end_seq.
  std::vector<sketch::TaggedReport> reports;
  for (std::uint32_t i = 0; i < 7; ++i) {
    reports.push_back(make_report(flow(i), 10, {100, 200, 300}));
  }
  HostUplink up(5, /*max_reports_per_payload=*/2);
  const auto upload = up.encode_epoch(std::move(reports));
  ASSERT_EQ(upload.payloads.size(), 4u);

  // Deliver the survivors in reverse order: gap accounting must be
  // insensitive to reordering.
  ASSERT_TRUE(col.submit_report_payload(5, upload.epoch,
                                        upload.payloads[2].bytes));
  ASSERT_TRUE(col.submit_report_payload(5, upload.epoch,
                                        upload.payloads[0].bytes));
  col.seal_epoch(5, upload.epoch, upload.end_seq);
  col.stop();

  const auto st = col.stats();
  EXPECT_EQ(st.reports_decoded, 4u);
  EXPECT_EQ(st.reports_lost, 3u);  // payload[1] (2 reports) + payload[3] (1)

  // Without end_seq the trailing payload's loss is undetectable, but the
  // interior gap still counts.
  analyzer::Analyzer an2;
  Collector col2(CollectorConfig{}, an2);
  col2.start();
  ASSERT_TRUE(col2.submit_report_payload(5, upload.epoch,
                                         upload.payloads[0].bytes));
  ASSERT_TRUE(col2.submit_report_payload(5, upload.epoch,
                                         upload.payloads[2].bytes));
  col2.seal_epoch(5, upload.epoch);
  col2.stop();
  EXPECT_EQ(col2.stats().reports_lost, 2u);
}

TEST(Collector, MalformedPayloadsAreCountedAndDiscarded) {
  analyzer::Analyzer an;
  Collector col(CollectorConfig{}, an);
  col.start();

  // (1) Pure garbage.
  EXPECT_FALSE(col.submit_report_payload(0, 0, {0xDE, 0xAD, 0xBE, 0xEF, 0x01}));
  // (2) A valid batch, truncated mid-report.
  HostUplink up(0);
  auto upload = up.encode_epoch({make_report(flow(1), 0, {1, 2, 3, 4})});
  std::vector<std::uint8_t> cut = upload.payloads[0].bytes;
  cut.resize(cut.size() / 2);
  EXPECT_FALSE(col.submit_report_payload(0, 0, std::move(cut)));
  // (3) A valid batch with trailing garbage appended.
  std::vector<std::uint8_t> padded = upload.payloads[0].bytes;
  padded.push_back(0xFF);
  EXPECT_FALSE(col.submit_report_payload(0, 0, std::move(padded)));
  // (4) Too short to even hold the count prefix.
  EXPECT_FALSE(col.submit_report_payload(0, 0, {0x01}));
  col.stop();

  const auto st = col.stats();
  EXPECT_EQ(st.payloads_submitted, 4u);
  EXPECT_EQ(st.payloads_malformed, 4u);
  EXPECT_EQ(st.reports_decoded, 0u);
  EXPECT_EQ(an.known_flows(), 0u);
  EXPECT_EQ(an.report_bytes_ingested(), 0u);
}

TEST(Collector, DropNewestShedsArrivals) {
  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  cfg.overflow = OverflowPolicy::kDropNewest;
  Collector col(cfg, an);
  // Submit before start(): with no worker draining, the queue fills
  // deterministically.
  HostUplink up(0);
  const auto a = up.encode_epoch({make_report(flow(1), 0, {10, 20})});
  const auto b = up.encode_epoch({make_report(flow(2), 0, {30, 40})});
  ASSERT_TRUE(col.submit_report_payload(0, 0, a.payloads[0].bytes));
  ASSERT_TRUE(col.submit_report_payload(0, 0, b.payloads[0].bytes));
  col.start();
  col.stop();

  const auto st = col.stats();
  EXPECT_EQ(st.batches_shed, 1u);
  EXPECT_EQ(st.reports_shed, 1u);
  EXPECT_EQ(st.reports_decoded, 1u);
  // The older payload survived; the newer one was rejected.
  EXPECT_FALSE(an.query_rate(flow(1)).empty());
  EXPECT_TRUE(an.query_rate(flow(2)).empty());
}

TEST(Collector, DropOldestEvictsQueuedBatch) {
  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  cfg.overflow = OverflowPolicy::kDropOldest;
  Collector col(cfg, an);
  HostUplink up(0);
  const auto a = up.encode_epoch({make_report(flow(1), 0, {10, 20})});
  const auto b = up.encode_epoch({make_report(flow(2), 0, {30, 40})});
  ASSERT_TRUE(col.submit_report_payload(0, 0, a.payloads[0].bytes));
  ASSERT_TRUE(col.submit_report_payload(0, 0, b.payloads[0].bytes));
  col.start();
  col.stop();

  const auto st = col.stats();
  EXPECT_EQ(st.batches_shed, 1u);
  EXPECT_EQ(st.reports_shed, 1u);
  EXPECT_EQ(st.reports_decoded, 1u);
  // The newer payload displaced the older one.
  EXPECT_TRUE(an.query_rate(flow(1)).empty());
  EXPECT_FALSE(an.query_rate(flow(2)).empty());
}

TEST(Collector, MirrorBatchesReachAnalyzer) {
  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 2;
  Collector col(cfg, an);
  col.start();

  // Two bursts on one switch port, separated by a quiet gap, delivered as
  // interleaved batches.
  std::vector<uevent::MirroredPacket> batch1, batch2;
  for (int i = 0; i < 10; ++i) {
    uevent::MirroredPacket m;
    m.pkt.flow = flow(static_cast<std::uint32_t>(i % 2));
    m.pkt.size = 1000;
    m.switch_id = 1;
    m.egress_port = 4;
    m.switch_timestamp = i * kMicro;
    batch1.push_back(m);
    m.switch_timestamp = 500 * kMicro + i * kMicro;
    batch2.push_back(m);
  }
  col.submit_mirror_batch(batch2);
  col.submit_mirror_batch(batch1);
  col.stop();

  EXPECT_EQ(col.stats().mirror_packets, 20u);
  EXPECT_GT(an.mirror_bytes_ingested(), 0u);
  const auto events = an.events(/*quiet_gap=*/50 * kMicro);
  ASSERT_EQ(events.size(), 2u);  // order-insensitive grouping
  EXPECT_LT(events[0].start, events[1].start);
}

TEST(Collector, ClockOffsetsShiftWireCurves) {
  // The analyzer's clock model must apply to collector-delivered batches the
  // same way it applies to direct ingest.
  analyzer::Analyzer an(/*window_shift=*/kDefaultWindowShift);
  analyzer::ClockModel clocks;
  const WindowId offset_windows = 5;
  clocks.host_offset[7] =
      static_cast<Nanos>(offset_windows) * window_length(kDefaultWindowShift);
  an.set_clock_model(std::move(clocks));

  Collector col(CollectorConfig{}, an);
  col.start();
  HostUplink up(7);
  const auto upload =
      up.encode_epoch({make_report(flow(1), 100, {10, 20, 30})});
  ASSERT_TRUE(col.submit_report_payload(7, upload.epoch,
                                        upload.payloads[0].bytes));
  col.seal_epoch(7, upload.epoch, upload.end_seq);
  col.stop();

  const analyzer::RateCurve c = an.query_rate(flow(1));
  ASSERT_FALSE(c.empty());
  EXPECT_EQ(c.w0, 100 - offset_windows);
  EXPECT_NEAR(c.bytes_at(100 - offset_windows), 10.0, 1e-9);
}

// The TSan target (ctest -R collector_concurrency): several producer threads
// submit payloads and seal epochs concurrently against a small blocking
// queue, racing the shard workers and a mirror producer.
TEST(CollectorConcurrency, MultiProducerManyShards) {
  constexpr int kHosts = 4;
  constexpr int kEpochs = 5;
  constexpr std::uint32_t kFlowsPerHost = 6;
  constexpr WindowId kWindowsPerEpoch = 16;

  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 4;
  cfg.queue_capacity = 2;  // small on purpose: exercise blocking
  cfg.overflow = OverflowPolicy::kBlock;
  Collector col(cfg, an);
  col.start();

  std::vector<std::thread> producers;
  producers.reserve(kHosts + 1);
  for (int h = 0; h < kHosts; ++h) {
    producers.emplace_back([&col, h] {
      HostUplink up(h, /*max_reports_per_payload=*/3);
      for (int e = 0; e < kEpochs; ++e) {
        std::vector<sketch::TaggedReport> reports;
        for (std::uint32_t i = 0; i < kFlowsPerHost; ++i) {
          const WindowId w0 =
              static_cast<WindowId>(e) * kWindowsPerEpoch;
          std::vector<Count> values(kWindowsPerEpoch, 100);
          reports.push_back(make_report(
              flow(static_cast<std::uint32_t>(h) * 100 + i), w0,
              std::move(values)));
        }
        const auto upload = up.encode_epoch(std::move(reports));
        for (const auto& p : upload.payloads) {
          ASSERT_TRUE(col.submit_report_payload(h, upload.epoch, p.bytes));
        }
        col.seal_epoch(h, upload.epoch, upload.end_seq);
      }
    });
  }
  producers.emplace_back([&col] {
    for (int b = 0; b < 20; ++b) {
      std::vector<uevent::MirroredPacket> batch(5);
      for (int i = 0; i < 5; ++i) {
        batch[static_cast<std::size_t>(i)].pkt.flow = flow(999);
        batch[static_cast<std::size_t>(i)].switch_id = 0;
        batch[static_cast<std::size_t>(i)].egress_port = b % 4;
        batch[static_cast<std::size_t>(i)].switch_timestamp =
            (b * 5 + i) * kMicro;
      }
      col.submit_mirror_batch(std::move(batch));
    }
  });
  for (auto& t : producers) t.join();
  col.stop();

  const auto st = col.stats();
  const std::uint64_t expected_reports =
      static_cast<std::uint64_t>(kHosts) * kEpochs * kFlowsPerHost;
  EXPECT_EQ(st.reports_scanned, expected_reports);
  EXPECT_EQ(st.reports_decoded, expected_reports);
  EXPECT_EQ(st.reports_lost, 0u);
  EXPECT_EQ(st.reports_shed, 0u);
  EXPECT_EQ(st.reports_malformed, 0u);
  EXPECT_EQ(st.mirror_packets, 100u);
  EXPECT_EQ(st.epochs_flushed,
            static_cast<std::uint64_t>(kHosts) * kEpochs);

  // Every flow's stitched curve is complete and exact: kEpochs epochs of
  // kWindowsPerEpoch windows at 100 bytes each, no overlaps.
  for (int h = 0; h < kHosts; ++h) {
    for (std::uint32_t i = 0; i < kFlowsPerHost; ++i) {
      const FlowKey f = flow(static_cast<std::uint32_t>(h) * 100 + i);
      EXPECT_NEAR(an.curves().total_bytes(f),
                  100.0 * kEpochs * kWindowsPerEpoch, 1e-6)
          << "host " << h << " flow " << i;
    }
  }
}

// stats() is now a one-pass snapshot over the collector's telemetry registry,
// so it must be safe to call while producers and shard workers are mid-
// flight — the old bespoke counter struct had no such guarantee. Reader
// threads hammer stats() during ingest; TSan (via collector_concurrency)
// checks the data-race freedom, the final assertions check no counts were
// lost.
TEST(CollectorConcurrency, StatsDuringIngest) {
  constexpr int kHosts = 3;
  constexpr int kEpochs = 4;
  constexpr std::uint32_t kFlowsPerHost = 4;

  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 2;
  Collector col(cfg, an);
  col.start();

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&col, &done] {
      std::uint64_t last_decoded = 0, last_scanned = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const CollectorStats st = col.stats();
        // Each counter is monotone across snapshots. Cross-counter
        // relations (decoded <= scanned) are NOT asserted: the snapshot
        // visits registry shards one lock at a time, so it is a fuzzy cut,
        // not a consistent one.
        EXPECT_GE(st.reports_decoded, last_decoded);
        EXPECT_GE(st.reports_scanned, last_scanned);
        last_decoded = st.reports_decoded;
        last_scanned = st.reports_scanned;
      }
    });
  }
  for (int h = 0; h < kHosts; ++h) {
    threads.emplace_back([&col, h] {
      HostUplink up(h, /*max_reports_per_payload=*/2);
      for (int e = 0; e < kEpochs; ++e) {
        std::vector<sketch::TaggedReport> reports;
        for (std::uint32_t i = 0; i < kFlowsPerHost; ++i) {
          reports.push_back(
              make_report(flow(static_cast<std::uint32_t>(h) * 10 + i),
                          e * 8, {1, 2, 3, 4}));
        }
        const auto upload = up.encode_epoch(std::move(reports));
        for (const auto& p : upload.payloads) {
          ASSERT_TRUE(col.submit_report_payload(h, upload.epoch, p.bytes));
        }
        col.seal_epoch(h, upload.epoch, upload.end_seq);
      }
    });
  }
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();
  col.stop();
  done.store(true, std::memory_order_relaxed);
  threads[0].join();
  threads[1].join();

  const CollectorStats st = col.stats();
  EXPECT_EQ(st.reports_decoded,
            static_cast<std::uint64_t>(kHosts) * kEpochs * kFlowsPerHost);
  EXPECT_EQ(st.reports_lost, 0u);
  EXPECT_EQ(st.epochs_flushed, static_cast<std::uint64_t>(kHosts) * kEpochs);
}

// Liveness regression (run under TSan via collector_concurrency): drain()
// must return while a shard is crashed, because a crashed shard keeps
// consuming its queue — discarding data batches but still acking barriers.
// The original implementation parked the crashed shard's consumer, so any
// barrier enqueued behind its backlog waited forever. Producers, a chaos
// thread flipping crash/restart, and a drainer all run concurrently; at the
// end every scanned report is accounted for exactly once: decoded, shed,
// or discarded by a crashed shard.
TEST(CollectorConcurrency, DrainDuringCrashRestart) {
  constexpr int kHosts = 3;
  constexpr int kEpochs = 6;
  constexpr std::uint32_t kFlowsPerHost = 4;

  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 4;
  cfg.overflow = OverflowPolicy::kBlock;  // nothing shed: stats stay exact
  Collector col(cfg, an);
  col.start();

  std::atomic<bool> done{false};
  std::thread chaos([&col, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      col.crash_shard(0);
      std::this_thread::yield();
      col.restart_shard(0);
      std::this_thread::yield();
    }
    col.restart_shard(0);
  });
  std::thread drainer([&col, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const int live = col.drain();  // must never wedge mid-crash
      EXPECT_GE(live, 0);
      EXPECT_LE(live, 2);
    }
  });

  std::vector<std::thread> producers;
  for (int h = 0; h < kHosts; ++h) {
    producers.emplace_back([&col, h] {
      HostUplink up(h, /*max_reports_per_payload=*/2);
      for (int e = 0; e < kEpochs; ++e) {
        std::vector<sketch::TaggedReport> reports;
        for (std::uint32_t i = 0; i < kFlowsPerHost; ++i) {
          reports.push_back(
              make_report(flow(static_cast<std::uint32_t>(h) * 10 + i),
                          e * 8, {1, 2, 3, 4}));
        }
        const auto upload = up.encode_epoch(std::move(reports));
        for (const auto& p : upload.payloads) {
          ASSERT_TRUE(col.submit_report_payload(h, upload.epoch, p.bytes));
        }
        col.seal_epoch(h, upload.epoch, upload.end_seq);
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_relaxed);
  chaos.join();
  drainer.join();
  // One last crash-free drain: whatever survived must be fully processed.
  EXPECT_EQ(col.drain(), 2);
  col.stop();

  const CollectorStats st = col.stats();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kHosts) * kEpochs * kFlowsPerHost;
  EXPECT_EQ(st.reports_scanned, expected);
  EXPECT_EQ(st.reports_shed, 0u);
  EXPECT_EQ(st.reports_malformed, 0u);
  // Exactly-once accounting: a report either reached the analyzer or was
  // discarded by a crashed shard — never both, never neither.
  EXPECT_EQ(st.reports_decoded + st.reports_crashed, expected);
  EXPECT_EQ(st.epochs_flushed, static_cast<std::uint64_t>(kHosts) * kEpochs);
}

// Regression: crash damage a shard records when it *dequeues* a batch used
// to be consumed by seal_epoch() at call time — but the seal call can run
// before the crashed worker has popped the batch, so the damage was found
// by no one and the loss hook silently never fired for that epoch. Damage
// now settles when the epoch's seal barrier completes (queue FIFO proves
// every pre-seal batch was consumed) and dispatches from drain()/stop() on
// the caller's thread.
TEST(Collector, CrashDamageRecordedAfterSealStillFiresLossHook) {
  analyzer::Analyzer an;
  CollectorConfig cfg;
  cfg.shards = 1;
  Collector col(cfg, an);
  std::vector<std::tuple<int, std::uint32_t, std::uint64_t>> hook_calls;
  col.set_epoch_loss_hook(
      [&hook_calls](int host, std::uint32_t epoch, std::uint64_t lost) {
        hook_calls.emplace_back(host, epoch, lost);
      });
  col.start();
  col.crash_shard(0);

  HostUplink up(4, /*max_reports_per_payload=*/2);
  const auto upload = up.encode_epoch({make_report(flow(1), 0, {1, 2}),
                                       make_report(flow(2), 0, {3, 4}),
                                       make_report(flow(3), 0, {5, 6})});
  for (const auto& p : upload.payloads) {
    ASSERT_TRUE(col.submit_report_payload(4, upload.epoch, p.bytes));
  }
  // Seal immediately — quite possibly before the crashed worker dequeued
  // (and discarded) a single batch. No drain() in between, on purpose.
  col.seal_epoch(4, upload.epoch, upload.end_seq);

  // The hook only ever runs inside drain()/stop() on this thread, so it
  // cannot have fired yet — and must fire during this drain.
  EXPECT_TRUE(hook_calls.empty());
  EXPECT_EQ(col.drain(), 0);  // the only shard is down
  std::uint64_t lost_total = 0;
  for (const auto& [host, epoch, lost] : hook_calls) {
    EXPECT_EQ(host, 4);
    EXPECT_EQ(epoch, upload.epoch);
    lost_total += lost;
  }
  EXPECT_EQ(lost_total, 3u);  // every report the crashed shard discarded

  col.stop();
  const CollectorStats st = col.stats();
  EXPECT_EQ(st.reports_crashed, 3u);
  EXPECT_EQ(st.reports_decoded, 0u);
}

// --- end-to-end: recorded fat-tree run replayed through the lossy channel --

struct RecordedRun {
  std::vector<std::pair<int, PacketRecord>> host_tx;  // (host, packet)
  analyzer::GroundTruth truth;
  workload::Workload workload;
  int hosts = 0;
};

const RecordedRun& recorded_run() {
  static const RecordedRun run = [] {
    RecordedRun r;
    workload::WorkloadParams wp;
    wp.load = 0.15;
    wp.duration = 4 * kMilli;
    wp.seed = 11;
    r.workload = workload::generate(workload::WorkloadKind::kHadoop, wp);
    netsim::NetworkConfig cfg;
    cfg.queue_sample_interval = 0;
    auto net = netsim::Network::fat_tree(cfg, 4);
    r.hosts = net->host_count();
    net->set_host_tx_hook([&r](int host, const PacketRecord& pkt) {
      r.truth.add(pkt.flow, pkt.timestamp, pkt.size);
      r.host_tx.emplace_back(host, pkt);
    });
    workload::install(r.workload, *net);
    net->run_until(wp.duration + 2 * kMilli);
    net->finish();
    return r;
  }();
  return run;
}

struct LossyResult {
  double mean_cosine = 0;
  std::uint64_t reports_in_dropped_payloads = 0;
  CollectorStats stats;
};

LossyResult run_lossy(double loss_rate) {
  const RecordedRun& run = recorded_run();

  sketch::WaveSketchParams sp;
  sp.depth = 3;
  sp.width = 256;
  sp.levels = 8;
  sp.k = 64;
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches;
  std::vector<HostUplink> uplinks;
  for (int h = 0; h < run.hosts; ++h) {
    sketches.push_back(std::make_unique<sketch::WaveSketchFull>(sp));
    uplinks.emplace_back(h, /*max_reports_per_payload=*/64);
  }
  for (const auto& [host, pkt] : run.host_tx) {
    sketches[static_cast<std::size_t>(host)]->update(
        pkt.flow, pkt.timestamp, static_cast<Count>(pkt.size));
  }

  analyzer::Analyzer an;
  CollectorConfig ccfg;
  ccfg.shards = 2;
  Collector col(ccfg, an);
  col.start();

  netsim::UploadChannelConfig ucfg;
  ucfg.loss_rate = loss_rate;
  ucfg.jitter = 20 * kMicro;
  ucfg.seed = 77;  // same seed at every rate: dropped sets are nested
  netsim::UploadChannel channel(
      ucfg, [&col](netsim::UploadChannel::Delivery&& d) {
        ASSERT_TRUE(
            col.submit_report_payload(d.host, d.epoch, std::move(d.payload)));
      });

  LossyResult res;
  std::vector<std::uint32_t> end_seq(static_cast<std::size_t>(run.hosts), 0);
  for (int h = 0; h < run.hosts; ++h) {
    auto upload =
        uplinks[static_cast<std::size_t>(h)].flush_epoch(
            *sketches[static_cast<std::size_t>(h)]);
    end_seq[static_cast<std::size_t>(h)] = upload.end_seq;
    for (auto& p : upload.payloads) {
      // umon-sca: allow(SA009) this test measures the raw lossy channel
      if (!channel.send(h, upload.epoch, std::move(p.bytes),
                        /*now=*/h * kMicro)) {
        res.reports_in_dropped_payloads += p.reports;
      }
    }
  }
  channel.flush();
  for (int h = 0; h < run.hosts; ++h) {
    col.seal_epoch(h, 0, end_seq[static_cast<std::size_t>(h)]);
  }
  col.stop();
  res.stats = col.stats();

  int evaluated = 0;
  double cos_sum = 0;
  for (const auto& f : run.workload.flows) {
    if (f.bytes < 100'000) continue;
    const auto truth_series = run.truth.series(f.key);
    const analyzer::RateCurve est = an.query_rate(f.key);
    if (truth_series.empty()) continue;
    std::vector<double> est_aligned(truth_series.values.size(), 0.0);
    for (std::size_t i = 0; i < est_aligned.size(); ++i) {
      est_aligned[i] =
          est.bytes_at(truth_series.w0 + static_cast<WindowId>(i));
    }
    cos_sum += analyzer::cosine_similarity(truth_series.values, est_aligned);
    ++evaluated;
  }
  EXPECT_GT(evaluated, 3);
  res.mean_cosine = evaluated > 0 ? cos_sum / evaluated : 0;
  return res;
}

TEST(Collector, LossyChannelEndToEnd) {
  const LossyResult clean = run_lossy(0.0);
  const LossyResult mild = run_lossy(0.01);
  const LossyResult harsh = run_lossy(0.10);

  // Loss accounting: the sequence-gap counter recovers exactly the number of
  // reports the channel dropped, and nothing is miscounted as malformed.
  for (const LossyResult* r : {&clean, &mild, &harsh}) {
    EXPECT_EQ(r->stats.reports_lost, r->reports_in_dropped_payloads);
    EXPECT_EQ(r->stats.payloads_malformed, 0u);
    EXPECT_EQ(r->stats.reports_shed, 0u);
  }
  EXPECT_EQ(clean.reports_in_dropped_payloads, 0u);
  EXPECT_GT(harsh.reports_in_dropped_payloads, 0u);

  // Clean-channel accuracy matches the in-process pipeline's bar.
  EXPECT_GT(clean.mean_cosine, 0.85);
  // With one seed the dropped-payload sets nest as the rate grows, so
  // accuracy degrades monotonically (losing reports can only remove bytes
  // from the reconstructed curves).
  EXPECT_GE(clean.mean_cosine + 1e-9, mild.mean_cosine);
  EXPECT_GE(mild.mean_cosine + 1e-9, harsh.mean_cosine);
  EXPECT_GT(harsh.mean_cosine, 0.3);  // degraded, not destroyed
}

}  // namespace
}  // namespace umon::collector
