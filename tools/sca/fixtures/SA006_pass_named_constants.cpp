// Golden fixture: SA006 must stay quiet on the sanctioned patterns.
#include <cstdint>

using Nanos = std::int64_t;

// A named constexpr definition may carry the raw unit value.
constexpr Nanos kMicro = 1'000;
constexpr Nanos kStatsInterval = 250 * kMicro;

inline Nanos deadline_after(Nanos now) { return now + 5 * kMicro; }

// Unit-valued literals outside a time-typed context are not time units.
inline int checksum_rounds() {
  int total = 0;
  for (int i = 0; i < 1'000; ++i) total += i;
  return total;
}

// An explicitly reviewed exception is suppressible per line.
inline Nanos legacy_grace_period() {
  return 1'000'000;  // umon-sca: allow(SA006) reviewed legacy value
}
