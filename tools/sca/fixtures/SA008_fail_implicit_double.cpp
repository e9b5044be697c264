// Golden fixture: implicit promotion of a Nanos value through double
// arithmetic trips SA008 — int64 timestamps lose precision past 2^53 ns.
#include <cstdint>

using Nanos = std::int64_t;

inline double smoothed(Nanos t) { return t * 0.5 + t / 1e3; }
