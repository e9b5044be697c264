// Golden fixture: a raw time-unit literal in time-typed context trips
// SA006 — this is 250 us written as a magic number instead of 250 * kMicro.
#include <cstdint>

using Nanos = std::int64_t;

inline Nanos deadline_after(Nanos now) { return now + 250 * 1'000; }
