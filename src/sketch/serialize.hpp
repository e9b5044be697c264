// Binary wire format for WaveSketch reports — the bytes a host actually
// uploads to the uMon analyzer each measurement period.
//
// Version 2 layout (little-endian):
//   ReportHeader { magic, version, flags, row, col, seq,
//                  [flow 5-tuple when flags & kFlagHasFlow],
//                  w0, length, levels, approx_count, detail_count }
//   approx_count x int32 approximation coefficients
//   detail_count x { uint8 level, uint24 index, int32 value } (6 bytes was
//   the analysis figure; we round the index to 3 bytes for alignment-free
//   packing, total 8 bytes per detail on the wire here)
//
// v2 adds the per-report sequence number (so the collector can count gaps
// left by lost uploads) and an optional flow tag (heavy-part reports carry
// the flow they are dedicated to, so the analyzer can stitch per-flow curves
// without host-side state). Only version 2 is written or accepted; a
// version-1 header (no flags/seq/flow) fails to decode.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "sketch/report.hpp"
#include "sketch/wavesketch.hpp"

namespace umon::sketch {

/// Append the encoded report to `out`. Returns bytes written.
std::size_t encode_report(const TaggedReport& report,
                          std::vector<std::uint8_t>& out);

/// Encode a whole flush batch with a count prefix.
[[nodiscard]] std::vector<std::uint8_t> encode_batch(
    std::span<const TaggedReport> reports);

/// Encode a batch stamping consecutive sequence numbers: report i is written
/// with seq = first_seq + i (the in-memory reports are left untouched).
[[nodiscard]] std::vector<std::uint8_t> encode_batch(
    std::span<const TaggedReport> reports, std::uint32_t first_seq);

/// Decode one report starting at `in[offset]`; advances `offset`. Returns
/// nullopt on malformed input (truncation, bad magic, absurd counts, or
/// coefficient counts inconsistent with `length`/`levels` — the last check
/// guarantees `report.reconstruct()` on a decoded report never reads out of
/// bounds, so adversarial bytes cannot reach UB downstream).
[[nodiscard]] std::optional<TaggedReport> decode_report(
    std::span<const std::uint8_t> in, std::size_t& offset);

/// Decode a batch produced by encode_batch. Returns nullopt if any report
/// is malformed.
[[nodiscard]] std::optional<std::vector<TaggedReport>> decode_batch(
    std::span<const std::uint8_t> in);

/// Routing metadata of one report, produced by a framing-level scan that
/// does not allocate or parse coefficients. The collector front-end uses it
/// to split a batch across ingest shards (by flow hash) while leaving the
/// expensive decode + reconstruction to the shard workers.
// umon-sca: wire-struct
struct ReportFrame {
  std::size_t begin = 0;  ///< first byte of the report within the buffer
  std::size_t end = 0;    ///< one past the last byte
  std::uint32_t seq = 0;
  bool has_flow = false;
  FlowKey flow;           ///< valid when has_flow
  int row = 0;
  std::uint32_t col = 0;
};

// Frames are copied into per-shard routing vectors on the collector's front
// door; the copy must stay a flat memcpy-able value.
static_assert(std::is_trivially_copyable_v<ReportFrame>);
static_assert(std::is_standard_layout_v<ReportFrame>);

/// Scan one report's framing starting at `in[offset]`; advances `offset`
/// past the whole report. Applies the same header validation as
/// decode_report (a frame that scans clean also decodes clean).
[[nodiscard]] std::optional<ReportFrame> scan_report(
    std::span<const std::uint8_t> in, std::size_t& offset);

}  // namespace umon::sketch
