// umon-sca-fixture: path=src/obs/prof.cpp
// The profiler shim itself is the one sanctioned home for the raw cycle
// counter; its path is exempt from SA010.
#include <cstdint>

std::uint64_t shim_read_tsc() {
  return __rdtsc();
}
