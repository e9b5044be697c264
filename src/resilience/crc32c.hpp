// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum the reliable uplink stamps on every frame so corrupted payloads
// are rejected at the collector instead of decoded into garbage curves, and
// the store stamps on every segment record.
//
// Software slice-by-8: the store checksums every record it appends and
// re-verifies every record of each segment it compacts or scrubs, which is
// megabytes per epoch on a busy collector, so a dependent table lookup per
// byte is not negligible. Eight 256-entry tables fold eight bytes per step.
// The tables are built constexpr (no runtime init order to reason about)
// and the header stays freestanding: no SIMD dispatch, no build flags, and
// input bytes are assembled explicitly, so the result does not depend on
// host endianness or alignment.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace umon::resilience {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][b] advances the
/// CRC of byte `b` followed by k zero bytes.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

/// Little-endian 32-bit load from bytes.
constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// Extend a running CRC32C with `len` bytes. Start from crc32c_init() and
/// pass the previous return value to process data in chunks; finalize with
/// crc32c_finish().
[[nodiscard]] constexpr std::uint32_t crc32c_update(std::uint32_t crc,
                                                    const std::uint8_t* data,
                                                    std::size_t len) {
  const auto& t = detail::kCrc32cTables;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(data + i);
    const std::uint32_t hi = detail::load_le32(data + i + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; i < len; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

[[nodiscard]] constexpr std::uint32_t crc32c_init() { return 0xFFFFFFFFu; }
[[nodiscard]] constexpr std::uint32_t crc32c_finish(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot convenience over a whole buffer.
[[nodiscard]] constexpr std::uint32_t crc32c(const std::uint8_t* data,
                                             std::size_t len) {
  return crc32c_finish(crc32c_update(crc32c_init(), data, len));
}

// RFC 3720 B.4 test vector: 32 zero bytes -> 0x8A9136AA. Checked at compile
// time so a table or polynomial regression cannot reach runtime.
namespace detail {
constexpr std::array<std::uint8_t, 32> kRfc3720Zeros{};
static_assert(crc32c(kRfc3720Zeros.data(), kRfc3720Zeros.size()) ==
                  0x8A9136AAu,
              "CRC32C does not match the RFC 3720 reference vector");
}  // namespace detail

}  // namespace umon::resilience
