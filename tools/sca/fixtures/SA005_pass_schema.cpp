// SA005 pass: FixtureWireOk matches its entry in the fixture
// wire_schema.lock field-for-field.
#include <cstdint>

// umon-sca: wire-struct
struct FixtureWireOk {
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint8_t kind = 0;
  std::uint8_t pad = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(FixtureWireOk) == 12, "fixture header is 12 bytes");
