// umon-sca-fixture: path=src/sketch/sample_clock.cpp
// Hot-path timing goes through the profiler shim: calibrated, sampled,
// and attributed. Wrapper names containing "rdtsc" (prof_rdtsc) are fine —
// only the raw intrinsics and OS clocks are banned.
#include "obs/prof.hpp"

void hot_update() {
  UMON_PROF_SCOPE(kCmUpdate);
}
