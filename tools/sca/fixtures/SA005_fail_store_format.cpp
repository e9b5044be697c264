// Golden fixture: a store record header (src/store/format.hpp) marked as a
// wire struct but with no adjacent static_assert trips SA005 — a stray
// member would silently change the segment bytes recovery CRC-checks.
#include <cstdint>

// umon-sca: wire-struct
struct RecordHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t kind = 0;
  std::uint8_t confidence = 0;
  std::uint16_t flow_hash16 = 0;
  std::uint32_t epoch = 0;
  std::uint32_t payload_crc = 0;
};
