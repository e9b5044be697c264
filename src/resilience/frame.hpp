// Reliable-uplink frame format, layered *around* the v2 report wire format:
// the inner payload bytes (a sketch::encode_batch() buffer, or an ACK body)
// are untouched, so the collector's framing scan and decoders never change.
//
// Frame layout (little-endian, 28-byte header):
//
//   uint16 magic      0x5AFE
//   uint8  version    1
//   uint8  kind       0 = data, 1 = ack
//   uint32 host       sending host (data) / addressed host (ack)
//   uint32 frame_seq  per-host frame sequence (data); acks echo 0
//   uint32 epoch      measurement epoch the payload belongs to
//   uint32 base_seq   sender's lowest retained frame_seq (data); acks echo 0.
//                     Every seq below it was acked or abandoned, so the
//                     receiver advances its cumulative counter past holes
//                     the sender will never resend instead of NACKing them
//                     forever.
//   uint32 payload_len
//   uint32 crc32c     over the header (crc field zeroed) + payload
//   payload_len bytes of payload
//
// ACK payload body (collector -> host, over the reverse channel):
//
//   uint32 cum_ack            every frame_seq < cum_ack was received
//   uint32 max_seen           one past the highest frame_seq received; with
//                             the nack list this bounds the scanned range,
//                             letting the sender release any seq in it that
//                             was not NACKed (SACK-style release)
//   uint32 nack_count         explicit retransmit requests that follow
//   nack_count x uint32       missing frame_seqs in [cum_ack, max_seen)
//
// The CRC covers the header too, so a frame whose length field was corrupted
// in flight cannot trick the decoder into reading a stale tail as payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

namespace umon::resilience {

enum class FrameKind : std::uint8_t { kData = 0, kAck = 1 };

/// Decoded view of one frame. `payload` is a copy of the inner bytes (the
/// channel consumed the buffer they arrived in).
// umon-sca: wire-struct
struct Frame {
  FrameKind kind = FrameKind::kData;
  std::uint32_t host = 0;
  std::uint32_t frame_seq = 0;
  std::uint32_t epoch = 0;
  std::uint32_t base_seq = 0;
  std::vector<std::uint8_t> payload;
};
static_assert(std::is_nothrow_move_constructible_v<Frame>,
              "frames move through the retransmit buffer and the channel");

/// Cumulative ACK + NACK list carried by a kAck frame.
// umon-sca: wire-struct
struct AckBody {
  std::uint32_t cum_ack = 0;
  std::uint32_t max_seen = 0;  ///< one past the highest frame_seq received
  std::vector<std::uint32_t> nacks;
};
static_assert(std::is_nothrow_move_constructible_v<AckBody>);

/// Bytes of the fixed frame header on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 28;
/// Upper bound on the nack list one ack frame carries; anything still
/// missing is requested by a later ack (or recovered by sender timeout).
inline constexpr std::size_t kMaxNacksPerAck = 64;

/// Encode a data frame wrapping `payload`. `base_seq` is the sender's
/// lowest retained frame_seq at encode time.
[[nodiscard]] std::vector<std::uint8_t> encode_data_frame(
    std::uint32_t host, std::uint32_t frame_seq, std::uint32_t epoch,
    std::uint32_t base_seq, std::span<const std::uint8_t> payload);

/// Patch the base_seq field of an already-encoded data frame (retransmits
/// advertise the sender's *current* base) and fix up the CRC.
void rewrite_base_seq(std::vector<std::uint8_t>& frame,
                      std::uint32_t base_seq);

/// Encode an ack frame addressed to `host`.
[[nodiscard]] std::vector<std::uint8_t> encode_ack_frame(std::uint32_t host,
                                                         const AckBody& body);

/// Decode and CRC-verify one frame. nullopt on truncation, bad magic/version,
/// length mismatch, or checksum failure — the caller counts those as
/// corrupt and drops them (the retransmit protocol recovers the data).
[[nodiscard]] std::optional<Frame> decode_frame(
    std::span<const std::uint8_t> in);

/// Parse the payload of a kAck frame. nullopt if the body is malformed.
[[nodiscard]] std::optional<AckBody> decode_ack_body(
    std::span<const std::uint8_t> payload);

}  // namespace umon::resilience
