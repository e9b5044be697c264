// SA004 fail: the fixture policy's relaxed allowlist still names this file,
// but its counter is now a plain single-threaded integer -- no
// memory_order_relaxed site is left, so the allowlist entry is stale and
// would silently bless a relaxed op added here later.
#include <cstdint>

class Tally {
 public:
  void inc() { ++v_; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};
