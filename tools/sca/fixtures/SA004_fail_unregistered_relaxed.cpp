// Golden fixture: memory_order_relaxed at a site that is NOT registered
// in the atomics policy's relaxed allowlist trips SA004.
#include <atomic>
#include <cstdint>

inline std::atomic<std::uint64_t> g_sneaky{0};

inline void bump() { g_sneaky.fetch_add(1, std::memory_order_relaxed); }
