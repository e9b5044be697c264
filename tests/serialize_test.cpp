// Tests for the report wire format and the software front-ends
// (aggregation cache, duty-cycled monitoring).
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sketch/aggregator.hpp"
#include "sketch/serialize.hpp"
#include "sketch/wavesketch.hpp"

namespace umon::sketch {
namespace {

FlowKey flow(std::uint32_t id) {
  FlowKey f;
  f.src_ip = 0x0A000000u | id;
  f.dst_ip = 0x0A0000FD;
  f.src_port = static_cast<std::uint16_t>(6000 + id);
  f.dst_port = 4791;
  f.proto = 17;
  return f;
}

TaggedReport sample_report() {
  TaggedReport r;
  r.row = 2;
  r.col = 197;
  r.seq = 41;
  r.report.w0 = 123456789;
  r.report.length = 777;
  r.report.levels = 8;
  r.report.approx = {10, -5, 0, 99999};
  r.report.details = {
      {0, 3, -42}, {3, 70000, 17}, {7, 1, 1 << 30}, {2, 0, -(1 << 29)}};
  return r;
}

TEST(Serialize, RoundTripSingle) {
  const TaggedReport orig = sample_report();
  std::vector<std::uint8_t> buf;
  const std::size_t n = encode_report(orig, buf);
  EXPECT_EQ(n, buf.size());

  std::size_t offset = 0;
  auto got = decode_report(buf, offset);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(got->row, orig.row);
  EXPECT_EQ(got->col, orig.col);
  EXPECT_EQ(got->seq, orig.seq);
  EXPECT_FALSE(got->flow.has_value());
  EXPECT_EQ(got->report.w0, orig.report.w0);
  EXPECT_EQ(got->report.length, orig.report.length);
  EXPECT_EQ(got->report.levels, orig.report.levels);
  EXPECT_EQ(got->report.approx, orig.report.approx);
  EXPECT_EQ(got->report.details, orig.report.details);
}

TEST(Serialize, RoundTripFlowTagged) {
  TaggedReport orig = sample_report();
  orig.flow = flow(9);
  std::vector<std::uint8_t> buf;
  encode_report(orig, buf);
  std::size_t offset = 0;
  auto got = decode_report(buf, offset);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->flow.has_value());
  EXPECT_EQ(*got->flow, flow(9));
  EXPECT_EQ(got->report.approx, orig.report.approx);
}

TEST(Serialize, RejectsVersion1Payloads) {
  // Hand-craft a well-formed v1 report: magic, version, row, col, w0,
  // length, levels, approx_count, detail_count, then coefficients — no
  // flags/seq/flow. Only v2 is accepted, so both the decoder and the
  // collector's framing scan must refuse it.
  std::vector<std::uint8_t> buf;
  auto put = [&buf](auto v) {
    std::uint8_t tmp[sizeof(v)];
    std::memcpy(tmp, &v, sizeof(v));
    buf.insert(buf.end(), tmp, tmp + sizeof(v));
  };
  put(std::uint16_t{0xA10E});
  put(std::uint8_t{1});                // version 1
  put(std::uint8_t{2});                // row
  put(std::uint32_t{197});             // col
  put(std::int64_t{123456789});        // w0
  put(std::uint32_t{7});               // length -> padded 8
  put(std::uint8_t{2});                // levels -> eff 2, needs >= 2 approx
  put(std::uint32_t{2});               // approx_count
  put(std::uint32_t{1});               // detail_count
  put(std::int32_t{11});
  put(std::int32_t{22});
  put(std::uint8_t{0});                // detail level
  put(std::uint8_t{3});                // index lo
  put(std::uint16_t{0});               // index hi
  put(std::int32_t{-5});               // value

  std::size_t offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());
  offset = 0;
  EXPECT_FALSE(scan_report(buf, offset).has_value());
}

TEST(Serialize, BatchSequenceStamping) {
  std::vector<TaggedReport> reports(5, sample_report());
  const auto bytes = encode_batch(reports, /*first_seq=*/100);
  const auto back = decode_batch(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*back)[i].seq, 100u + i);
  }
  // The in-memory reports keep their own seq.
  EXPECT_EQ(reports[0].seq, 41u);
}

TEST(Serialize, ScanMatchesDecode) {
  std::vector<TaggedReport> reports;
  for (std::uint32_t i = 0; i < 4; ++i) {
    TaggedReport r = sample_report();
    if (i % 2 == 0) r.flow = flow(i);
    reports.push_back(std::move(r));
  }
  const auto bytes = encode_batch(reports, /*first_seq=*/7);
  std::size_t offset = sizeof(std::uint32_t);  // skip the count prefix
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::size_t begin = offset;
    auto frame = scan_report(bytes, offset);
    ASSERT_TRUE(frame.has_value()) << i;
    EXPECT_EQ(frame->begin, begin);
    EXPECT_EQ(frame->seq, 7u + i);
    EXPECT_EQ(frame->has_flow, i % 2 == 0);
    if (frame->has_flow) {
      EXPECT_EQ(frame->flow, flow(i));
    }
    // The scanned slice decodes standalone.
    std::size_t inner = 0;
    auto full = decode_report(
        std::span(bytes.data() + frame->begin, frame->end - frame->begin),
        inner);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->seq, frame->seq);
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(Serialize, RoundTripBatchFromRealSketch) {
  WaveSketchParams p;
  p.depth = 2;
  p.width = 16;
  p.levels = 4;
  p.k = 16;
  WaveSketchBasic ws(p);
  Rng rng(4);
  for (int fid = 0; fid < 8; ++fid) {
    for (WindowId w = 0; w < 200; ++w) {
      if (rng.uniform() < 0.5) continue;
      ws.update_window(flow(static_cast<std::uint32_t>(fid)), w,
                       static_cast<Count>(100 + rng.below(2000)));
    }
  }
  const auto reports = ws.flush();
  ASSERT_FALSE(reports.empty());
  const auto bytes = encode_batch(reports);
  const auto back = decode_batch(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ((*back)[i].row, reports[i].row);
    EXPECT_EQ((*back)[i].col, reports[i].col);
    EXPECT_EQ((*back)[i].report.approx, reports[i].report.approx);
    EXPECT_EQ((*back)[i].report.details, reports[i].report.details);
    // Reconstruction from the decoded report is identical.
    const auto a = (*back)[i].report.reconstruct();
    const auto b = reports[i].report.reconstruct();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(Serialize, RejectsTruncation) {
  std::vector<std::uint8_t> buf;
  encode_report(sample_report(), buf);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, buf.size() / 2,
                          buf.size() - 1}) {
    std::size_t offset = 0;
    auto got = decode_report(std::span(buf.data(), cut), offset);
    EXPECT_FALSE(got.has_value()) << "cut=" << cut;
  }
}

TEST(Serialize, RejectsBadMagicAndGarbage) {
  std::vector<std::uint8_t> buf;
  encode_report(sample_report(), buf);
  buf[0] ^= 0xFF;
  std::size_t offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());

  // Batch with trailing garbage is rejected.
  const TaggedReport r = sample_report();
  auto batch = encode_batch(std::span(&r, 1));
  batch.push_back(0x00);
  EXPECT_FALSE(decode_batch(batch).has_value());
}

// v2 header layout: magic(2) version(1) flags(1) row(1) col(4) seq(4)
// w0(8) length(4) levels(1) approx_count(4) detail_count(4).
constexpr std::size_t kOffLength = 13 + 8;
constexpr std::size_t kOffLevels = kOffLength + 4;
constexpr std::size_t kOffApproxCount = kOffLevels + 1;
constexpr std::size_t kOffDetailCount = kOffApproxCount + 4;

TEST(Serialize, RejectsAbsurdCounts) {
  // Craft a header claiming 2^30 approximation coefficients.
  TaggedReport r = sample_report();
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  const std::uint32_t absurd = 1u << 30;
  std::memcpy(buf.data() + kOffApproxCount, &absurd, sizeof(absurd));
  std::size_t offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());

  // Same for the detail count.
  buf.clear();
  encode_report(r, buf);
  std::memcpy(buf.data() + kOffDetailCount, &absurd, sizeof(absurd));
  offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());
}

TEST(Serialize, RejectsAbsurdLength) {
  TaggedReport r = sample_report();
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  const std::uint32_t absurd = 1u << 30;  // > kMaxLength (2^24)
  std::memcpy(buf.data() + kOffLength, &absurd, sizeof(absurd));
  std::size_t offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());
}

// A header claiming more windows than its approximations cover must be
// rejected: reconstruct() reads `next_pow2(length) >> levels` approximation
// slots unconditionally, so trusting such a header is an out-of-bounds read
// (the assert guarding it compiles out in Release).
TEST(Serialize, RejectsApproxCountInconsistentWithLength) {
  TaggedReport r = sample_report();
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  // length 777 (padded 1024), levels 8 -> needs >= 4 approximations; claim
  // a larger length with the same 4 coefficients.
  const std::uint32_t stretched = 1u << 16;  // padded 65536 -> needs 256
  std::memcpy(buf.data() + kOffLength, &stretched, sizeof(stretched));
  std::size_t offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());

  // Also reject absurd levels outright.
  buf.clear();
  encode_report(r, buf);
  buf[kOffLevels] = 200;
  offset = 0;
  EXPECT_FALSE(decode_report(buf, offset).has_value());
}

// Details at the 24-bit index ceiling decode fine and reconstruct safely —
// out-of-range indices are ignored, never written out of bounds.
TEST(Serialize, MaxDetailIndexReconstructsSafely) {
  TaggedReport r = sample_report();
  r.report.details.push_back({0, (1u << 24) - 1, 12345});
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  std::size_t offset = 0;
  auto got = decode_report(buf, offset);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->report.details.back().index, (1u << 24) - 1);
  const auto series = got->report.reconstruct();
  EXPECT_EQ(series.size(), got->report.length);
}

// Every truncation point of a valid report must decode to nullopt — the
// header is parsed field-by-field with bounds checks, so no cut can read
// past the buffer (run under ASan in CI).
TEST(Serialize, RejectsEveryHeaderTruncation) {
  TaggedReport r = sample_report();
  r.flow = flow(3);
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::size_t offset = 0;
    EXPECT_FALSE(
        decode_report(std::span(buf.data(), cut), offset).has_value())
        << "cut=" << cut;
  }
}

// Regression: a header that parses cleanly and carries counts consistent
// with length/levels, but whose declared coefficient payload extends past
// the buffer, must be rejected by the extent bound *before* any coefficient
// is read. The original decoder checked each read individually; a frame cut
// between the header and the payload tail walked the coefficient loop up to
// the break, doing work proportional to the attacker-declared count. The
// bound makes the reject O(1) and is what scan/decode agreement relies on.
TEST(Serialize, RejectsPayloadExtentBeyondBuffer) {
  TaggedReport r = sample_report();
  std::vector<std::uint8_t> buf;
  encode_report(r, buf);
  const std::size_t payload_bytes =
      r.report.approx.size() * 4 + r.report.details.size() * 8;
  const std::size_t header_bytes = buf.size() - payload_bytes;

  // Buffer ends exactly at the header boundary: full header, zero of the
  // declared payload present.
  {
    std::size_t offset = 0;
    EXPECT_FALSE(
        decode_report(std::span(buf.data(), header_bytes), offset).has_value());
    // scan_report applies the same extent rule.
    offset = 0;
    EXPECT_FALSE(
        scan_report(std::span(buf.data(), header_bytes), offset).has_value());
  }
  // One whole detail record missing from the tail — counts still claim it.
  {
    std::size_t offset = 0;
    EXPECT_FALSE(
        decode_report(std::span(buf.data(), buf.size() - 8), offset)
            .has_value());
  }
  // Cut on every coefficient boundary inside the payload.
  for (std::size_t present = 0; present < payload_bytes; present += 4) {
    std::size_t offset = 0;
    EXPECT_FALSE(
        decode_report(std::span(buf.data(), header_bytes + present), offset)
            .has_value())
        << "payload bytes present: " << present;
  }
}

// --- AggregatingFrontEnd ----------------------------------------------------

TEST(Aggregator, CoalescesSameWindowUpdates) {
  std::vector<std::tuple<FlowKey, WindowId, Count>> sunk;
  auto sink = [&](const FlowKey& f, WindowId w, Count v) {
    sunk.emplace_back(f, w, v);
  };
  AggregatingFrontEnd agg(64, sink);
  const FlowKey f = flow(1);
  for (int i = 0; i < 10; ++i) agg.update(f, 5, 100);
  EXPECT_TRUE(sunk.empty());  // still resident
  agg.update(f, 6, 1);        // window advance evicts the aggregate
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(std::get<1>(sunk[0]), 5);
  EXPECT_EQ(std::get<2>(sunk[0]), 1000);
  EXPECT_EQ(agg.hits(), 9u);
  EXPECT_EQ(agg.misses(), 2u);
}

TEST(Aggregator, FlushDrainsEverything) {
  Count total = 0;
  auto sink = [&](const FlowKey&, WindowId, Count v) { total += v; };
  AggregatingFrontEnd agg(16, sink);
  for (std::uint32_t id = 0; id < 40; ++id) agg.update(flow(id), 1, 7);
  agg.flush();
  EXPECT_EQ(total, 40 * 7);
  agg.flush();  // idempotent
  EXPECT_EQ(total, 40 * 7);
}

TEST(Aggregator, ConservesValuesUnderRandomTraffic) {
  Count total_in = 0, total_out = 0;
  auto sink = [&](const FlowKey&, WindowId, Count v) { total_out += v; };
  AggregatingFrontEnd agg(32, sink);
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const Count v = static_cast<Count>(1 + rng.below(1500));
    total_in += v;
    agg.update(flow(static_cast<std::uint32_t>(rng.below(100))),
               static_cast<WindowId>(rng.below(50)), v);
  }
  agg.flush();
  EXPECT_EQ(total_in, total_out);
  EXPECT_GT(agg.hit_rate(), 0.0);
}

// --- EpochSampler ------------------------------------------------------------

TEST(EpochSampler, DutyCycleGates) {
  EpochSampler s(/*period=*/1000, /*active=*/250);
  EXPECT_NEAR(s.duty_cycle(), 0.25, 1e-12);
  EXPECT_TRUE(s.is_active(0));
  EXPECT_TRUE(s.is_active(249));
  EXPECT_FALSE(s.is_active(250));
  EXPECT_FALSE(s.is_active(999));
  EXPECT_TRUE(s.is_active(1000));
  // Long-run fraction approaches the duty cycle.
  int active = 0;
  for (Nanos t = 0; t < 100000; ++t) active += s.is_active(t) ? 1 : 0;
  EXPECT_NEAR(active / 100000.0, 0.25, 0.01);
}

}  // namespace
}  // namespace umon::sketch
