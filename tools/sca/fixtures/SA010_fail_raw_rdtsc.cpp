// umon-sca-fixture: path=src/sketch/sample_clock.cpp
// A hot path timing itself with raw rdtsc instead of the profiler shim:
// uncalibrated cycles, no sampling budget, invisible to the attribution
// table.
#include <cstdint>

std::uint64_t cycles_now() {
  return __rdtsc();
}
