// Golden fixture: a wire-format struct with its layout pinned by
// static_asserts adjacent to the definition (and a matching lockfile entry)
// satisfies SA005.
#include <cstdint>
#include <type_traits>

// umon-sca: wire-struct
struct WireHeader {
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
};
static_assert(sizeof(WireHeader) == 8, "v2 header prefix is 8 bytes");
static_assert(std::is_trivially_copyable_v<WireHeader>);
