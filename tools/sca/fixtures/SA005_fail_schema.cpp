// SA005 fail: the lockfile records `lo` before `hi`; the struct swapped
// them -- byte-identical sizeof, silently incompatible wire layout.
#include <cstdint>

// umon-sca: wire-struct
struct FixtureWireDrift {
  std::uint32_t id = 0;
  std::uint16_t hi = 0;
  std::uint16_t lo = 0;
};
static_assert(sizeof(FixtureWireDrift) == 8, "fixture record is 8 bytes");
