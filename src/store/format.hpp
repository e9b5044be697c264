// umon::store — on-disk segment file format.
//
// A store directory holds append-only segment files (`seg-<id>-t<tier>.useg`),
// each a fixed 24-byte header followed by CRC32C-framed records:
//
//   SegmentHeader { magic, version, tier, window_shift, segment_id,
//                   base_epoch, replaces_segment_id, header_crc }
//   repeated RecordHeader { payload_len, kind, confidence, flow_hash16,
//                           epoch, payload_crc } + payload bytes
//
// Record payloads (all little-endian, fields written individually — the
// structs below are never memcpy'd to disk as a whole):
//
//   kSparseCurve   flow 5-tuple (13 bytes), u32 count,
//                  count x { i64 window, u64 value-bits (IEEE double) }
//   kCoeffCurve    flow 5-tuple (13 bytes), i64 w0, u32 length, u8 levels,
//                  u16 approx_count, u16 detail_count,
//                  approx_count x i64, detail_count x { u8 level, u32 index,
//                  i64 value }
//   kConfidenceRun u32 count, count x { i64 from, i64 to, u8 confidence }
//   kEpochSeal     empty payload; its presence makes the epoch durable
//                  (the writer fsyncs immediately after appending it)
//
// Durability contract: a record is trusted only when (a) its payload CRC
// verifies and (b) a later kEpochSeal record in the same file also
// verifies. Recovery truncates everything past the last verified seal, so
// a torn tail can never resurrect half an epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"

namespace umon::store {

/// "UMGS" read as a little-endian u32.
constexpr std::uint32_t kSegmentMagic = 0x53474D55u;
constexpr std::uint16_t kSegmentVersion = 1;

/// `replaces_segment_id` value meaning "not a compaction output".
constexpr std::uint32_t kReplacesNone = 0xFFFFFFFFu;

/// Sanity bound on a single record payload; recovery treats anything larger
/// as a torn/corrupt tail rather than attempting a giant allocation.
constexpr std::uint32_t kMaxRecordPayload = 1u << 24;

/// What one record carries. Values are pinned — they are written to disk.
enum class RecordKind : std::uint8_t {
  kSparseCurve = 1,    ///< exact (tier-0) sparse window run for one flow
  kCoeffCurve = 2,     ///< tiered top-K Haar coefficient set for one flow
  kConfidenceRun = 3,  ///< store-global window confidence ranges
  kEpochSeal = 4,      ///< epoch durability barrier (fsync'd)
};

[[nodiscard]] constexpr bool valid_record_kind(std::uint8_t k) {
  return k >= static_cast<std::uint8_t>(RecordKind::kSparseCurve) &&
         k <= static_cast<std::uint8_t>(RecordKind::kEpochSeal);
}

/// Fixed segment file header. `header_crc` is CRC32C over the first 20
/// bytes as laid out on disk; `replaces_segment_id` names the tier-(n-1)
/// segment this compaction output supersedes (recovery unlinks the old
/// file if a crash landed between rename and unlink), kReplacesNone
/// otherwise.
// umon-sca: wire-struct
struct SegmentHeader {
  std::uint32_t magic = kSegmentMagic;
  std::uint16_t version = kSegmentVersion;
  std::uint8_t tier = 0;
  std::uint8_t window_shift = kDefaultWindowShift;
  std::uint32_t segment_id = 0;
  std::uint32_t base_epoch = 0;
  std::uint32_t replaces_segment_id = kReplacesNone;
  std::uint32_t header_crc = 0;
};

static_assert(std::is_trivially_copyable_v<SegmentHeader>);
static_assert(std::is_standard_layout_v<SegmentHeader>);
static_assert(sizeof(SegmentHeader) == 24,
              "segment header is 24 bytes on disk; bump kSegmentVersion "
              "before changing the layout");

/// Per-record frame. `payload_crc` is CRC32C over the payload bytes only;
/// the header itself is validated by range checks (kind, payload_len) — a
/// corrupted length cannot leap past kMaxRecordPayload. `confidence` is the
/// worst analyzer::WindowConfidence across the record's windows (0 for
/// non-curve records); `flow_hash16` is a routing/filter hint (low 16 bits
/// of FlowKey::packed(), 0 for non-flow records).
// umon-sca: wire-struct
struct RecordHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t kind = 0;
  std::uint8_t confidence = 0;
  std::uint16_t flow_hash16 = 0;
  std::uint32_t epoch = 0;
  std::uint32_t payload_crc = 0;
};

static_assert(std::is_trivially_copyable_v<RecordHeader>);
static_assert(std::is_standard_layout_v<RecordHeader>);
static_assert(sizeof(RecordHeader) == 16,
              "record frame is 16 bytes on disk; bump kSegmentVersion "
              "before changing the layout");

/// Serialized sizes (sum of individually written fields, not sizeof).
constexpr std::size_t kFlowKeyWireBytes = 13;
constexpr std::size_t kSparseEntryWireBytes = 16;  ///< i64 window + f64 bits
constexpr std::size_t kCoeffEntryWireBytes = 13;   ///< u8 + u32 + i64
constexpr std::size_t kCoeffFixedWireBytes =
    kFlowKeyWireBytes + 8 + 4 + 1 + 2 + 2;  ///< flow, w0, length, levels, counts

}  // namespace umon::store
