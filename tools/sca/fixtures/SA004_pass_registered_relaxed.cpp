// Golden fixture: this file is registered in the fixture atomics policy's
// relaxed allowlist (fixtures/atomics_policy.txt), so its relaxed counter
// is legal.
#include <atomic>
#include <cstdint>

class Counter {
 public:
  void inc() { v_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};
