// umon-sca-fixture: path=src/sketch/wallclock.cpp
// Golden fixture: wall-clock reads and libc rand() inside a deterministic
// hot-path directory trip SA007 — replays would diverge run to run.
#include <chrono>
#include <cstdint>
#include <cstdlib>

inline std::int64_t stamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

inline int jitter() { return rand() % 8; }
