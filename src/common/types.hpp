// Core value types shared by every uMon module.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

namespace umon {

/// Simulation / measurement timestamps, in nanoseconds.
using Nanos = std::int64_t;

/// Index of a microsecond-level measurement window (timestamp >> window_shift).
using WindowId = std::int64_t;

/// Value accumulated per window (bytes or packets, per configuration).
using Count = std::int64_t;

constexpr Nanos kMicro = 1'000;
constexpr Nanos kMilli = 1'000'000;
constexpr Nanos kSecond = 1'000'000'000;

/// The paper's default window: 8.192 us == 2^13 ns, so the window id is the
/// nanosecond hardware timestamp right-shifted by 13 bits (Section 7.1).
constexpr int kDefaultWindowShift = 13;

constexpr WindowId window_of(Nanos t, int shift = kDefaultWindowShift) {
  return t >> shift;
}
constexpr Nanos window_start(WindowId w, int shift = kDefaultWindowShift) {
  return w << shift;
}
constexpr Nanos window_length(int shift = kDefaultWindowShift) {
  return Nanos{1} << shift;
}

/// 5-tuple flow identifier.
// umon-sca: wire-struct
struct FlowKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  /// Canonical 13-byte packing folded into a single 64-bit word; all sketch
  /// hashing operates on this value.
  [[nodiscard]] std::uint64_t packed() const {
    std::uint64_t hi = (static_cast<std::uint64_t>(src_ip) << 32) | dst_ip;
    std::uint64_t lo = (static_cast<std::uint64_t>(src_port) << 24) |
                       (static_cast<std::uint64_t>(dst_port) << 8) | proto;
    // Mix the two words so distinct tuples rarely collide pre-hash.
    return hi ^ (lo * 0x9E3779B97F4A7C15ULL);
  }

  [[nodiscard]] std::string to_string() const;
};

// The 13 canonical bytes pad to 16; the v2 wire encoding writes the five
// fields individually, so layout changes here must show up in review.
static_assert(std::is_trivially_copyable_v<FlowKey>);
static_assert(std::is_standard_layout_v<FlowKey>);
static_assert(sizeof(FlowKey) == 16, "5-tuple is 13 bytes padded to 16");

/// ECN codepoints (RFC 3168 two-bit field).
enum class Ecn : std::uint8_t {
  kNotEct = 0b00,
  kEct1 = 0b01,
  kEct0 = 0b10,
  kCe = 0b11,  ///< Congestion Experienced
};

/// A measured packet as seen by the monitoring layer. The simulator produces
/// richer internal events; this is the projection both WaveSketch and the
/// uEvent pipeline consume.
// umon-sca: wire-struct
struct PacketRecord {
  FlowKey flow;
  Nanos timestamp = 0;       ///< local observation time (ns)
  std::uint32_t size = 0;    ///< wire bytes
  std::uint32_t psn = 0;     ///< packet sequence number (RoCEv2 PSN / TCP seq proxy)
  Ecn ecn = Ecn::kEct0;
  std::uint16_t port = 0;    ///< switch egress port (uEvent context)
};

static_assert(std::is_trivially_copyable_v<PacketRecord>,
              "PacketRecord is copied by value across the mirror path");
static_assert(std::is_standard_layout_v<PacketRecord>);

}  // namespace umon

template <>
struct std::hash<umon::FlowKey> {
  std::size_t operator()(const umon::FlowKey& k) const noexcept {
    std::uint64_t x = k.packed();
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};
