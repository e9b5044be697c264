// SA004 pass: the release store and its acquire partner are both named by
// the fixture-ready pair in atomics_policy.txt; the relaxed counter is
// covered by the file's relaxed-allowlist entry, not by the ledger.
#include <atomic>
#include <cstdint>

class Handoff {
 public:
  void publish(std::uint64_t v) {
    payload_ = v;
    ready_.store(true, std::memory_order_release);
  }
  std::uint64_t consume() {
    while (!ready_.load(std::memory_order_acquire)) {
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return payload_;
  }

 private:
  std::atomic<bool> ready_{false};
  std::atomic<std::uint64_t> hits_{0};
  std::uint64_t payload_ = 0;
};
