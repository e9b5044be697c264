// Golden fixture: a store segment header (src/store/format.hpp) marked as a
// wire struct pins its on-disk layout with asserts adjacent to the
// definition and matches its lockfile entry, which satisfies SA005.
#include <cstdint>
#include <type_traits>

// umon-sca: wire-struct
struct SegmentHeader {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint8_t tier = 0;
  std::uint8_t window_shift = 0;
  std::uint32_t segment_id = 0;
  std::uint32_t base_epoch = 0;
  std::uint32_t replaces_segment_id = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(SegmentHeader) == 24, "24 bytes on disk");
static_assert(std::is_trivially_copyable_v<SegmentHeader>);
