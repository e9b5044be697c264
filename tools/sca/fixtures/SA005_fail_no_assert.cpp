// Golden fixture: a wire-format struct without an adjacent static_assert
// trips SA005 — nothing pins its size or trivial copyability, so a stray
// member (or a vtable) could silently change the encoded bytes. Its
// lockfile entry matches, so the missing assert is the only finding.
#include <cstdint>

// umon-sca: wire-struct
struct UnpinnedWireHeader {
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
};
