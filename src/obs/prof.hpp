// umon::obs — always-on hot-path cycle profiler (sampling shim).
//
// UMON_PROF_SCOPE(stage) wraps one hot-path scope in an rdtsc pair, but only
// for 1-in-N calls per stage (N is a per-stage power of two, chosen so the
// per-packet stages pay one thread-local counter increment and a mask test
// on the non-sampled calls). Sampled cycles land in three global relaxed
// aggregates:
//
//   * a per-stage log2 cycle histogram,
//   * per-stage total sampled cycles + sample counts (the attribution
//     table multiplies back by the sampling period),
//   * a folded-stack table keyed on the packed scope stack (4 bits per
//     frame, bottom 4 frames), exportable as flamegraph "folded" lines.
//
// Cost model, enforced by bench_overhead: disabled, a scope is one relaxed
// load and a branch (≤5 ns/op, same budget as the telemetry shims);
// enabled, the whole pipeline's median over paired rounds must stay within
// 2% of its uninstrumented wall time. rdtsc is calibrated against
// telemetry::monotonic_ns() at prof_enable() so exports can convert cycles
// to nanoseconds.
//
// This header is the only place in the tree allowed to touch rdtsc or a raw
// OS clock on a hot path (umon-sca SA010 bans it everywhere else).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace umon::telemetry {
class MetricRegistry;
}

namespace umon::obs {

/// One value per instrumented hot path. Keep kCount <= 15: folded-stack
/// slots pack (stage + 1) into 4 bits per frame.
enum class ProfStage : std::uint8_t {
  kCmUpdate = 0,      ///< WaveSketch Count-Min row update (per packet)
  kHaarTransform,     ///< streaming Haar butterfly fold (per window roll)
  kTopkOffer,         ///< top-K coefficient heap offer
  kUplinkEncode,      ///< HostUplink epoch encode
  kShardDecode,       ///< collector shard batch decode + reconstruct
  kEpochFlush,        ///< collector sealed-epoch flush into the analyzer
  kStoreAppend,       ///< durable-store sparse append
  kPageRead,          ///< page-cache read (query side)
  kPageWrite,         ///< page-cache write_through (spill side)
  kQueryExec,         ///< query-engine execute (cache miss)
  kCount
};

inline constexpr std::size_t kProfStageCount =
    static_cast<std::size_t>(ProfStage::kCount);
static_assert(kProfStageCount <= 15, "folded-stack frames pack into 4 bits");

/// Scope stack frames folded into the 16-bit path key.
inline constexpr std::size_t kProfMaxDepth = 4;

/// 1-in-N sampling period per stage (powers of two; the non-sampled path
/// tests `calls & (N - 1)`). Per-packet stages sample sparsely; per-epoch
/// stages sample every call so short runs still attribute them.
inline constexpr std::uint32_t kProfPeriod[kProfStageCount] = {
    64,  // kCmUpdate
    64,  // kHaarTransform
    64,  // kTopkOffer
    1,   // kUplinkEncode
    4,   // kShardDecode
    1,   // kEpochFlush
    16,  // kStoreAppend
    4,   // kPageRead
    4,   // kPageWrite
    1,   // kQueryExec
};

[[nodiscard]] const char* to_string(ProfStage stage);
/// Inverse of to_string; kCount when `name` is not a stage.
[[nodiscard]] ProfStage parse_prof_stage(std::string_view name);

namespace detail {

extern std::atomic<bool> g_prof_enabled;

struct ProfTls {
  std::uint32_t calls[kProfStageCount];
  std::uint32_t path;  ///< (stage + 1) per nibble, leaf in the low nibble
  std::uint32_t depth;
};
[[nodiscard]] ProfTls& prof_tls();

void record_sample(ProfStage stage, std::uint16_t path_key,
                   std::uint64_t cycles);

}  // namespace detail

[[nodiscard]] inline bool prof_enabled() {
  return detail::g_prof_enabled.load(std::memory_order_relaxed);
}

/// Serializing-free cycle counter; falls back to the monotonic clock (1
/// "cycle" per ns) off x86.
[[nodiscard]] inline std::uint64_t prof_rdtsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  extern std::uint64_t prof_fallback_ticks();
  return prof_fallback_ticks();
#endif
}

/// Calibrate rdtsc against monotonic_ns (~2 ms spin), zero the aggregates,
/// and start sampling. Idempotent.
void prof_enable();
void prof_disable();
/// Zero every aggregate (calibration is kept). Thread-local call counters
/// are per-thread and not reset; only the sampling phase shifts.
void prof_reset();
/// TSC rate measured by the last prof_enable(); 1.0 before calibration.
[[nodiscard]] double prof_cycles_per_ns();

struct ProfStageSnapshot {
  ProfStage stage = ProfStage::kCount;
  const char* name = "";
  std::uint32_t period = 1;
  std::uint64_t samples = 0;         ///< rdtsc pairs actually taken
  std::uint64_t sampled_cycles = 0;  ///< cycles inside those pairs
  /// Per-stage log2 histogram: bucket b counts samples with
  /// bit_width(cycles) == b (clamped to kProfHistBuckets - 1).
  std::vector<std::uint64_t> hist;
};
inline constexpr std::size_t kProfHistBuckets = 32;

/// Stages with at least one sample, in enum order.
[[nodiscard]] std::vector<ProfStageSnapshot> prof_snapshot();

/// Flamegraph "folded" lines: `umon;stage;...;leaf <cycles>` where cycles
/// is the sampled total scaled back by the leaf stage's period. One line
/// per distinct scope stack, stable (slot-index) order.
void prof_write_folded(std::ostream& os);

/// Publish per-stage totals as umon_obs_stage_{cycles,samples}_total
/// counters (one shot — call once at export time).
void prof_publish(telemetry::MetricRegistry& registry);

/// RAII sampling scope. Disabled: one relaxed load + branch. Enabled: push
/// the stage onto the thread-local scope stack, bump the stage call
/// counter, and on the 1-in-N sampled calls read rdtsc at entry and exit.
class ProfScope {
 public:
  explicit ProfScope(ProfStage stage) {
    if (!prof_enabled()) return;
    active_ = true;
    stage_ = stage;
    auto& tls = detail::prof_tls();
    if (tls.depth < kProfMaxDepth) {
      tls.path = (tls.path << 4) |
                 (static_cast<std::uint32_t>(stage) + 1);
    }
    ++tls.depth;
    const auto idx = static_cast<std::size_t>(stage);
    const std::uint32_t call = tls.calls[idx]++;
    if ((call & (kProfPeriod[idx] - 1)) == 0) {
      sampled_ = true;
      start_ = prof_rdtsc();
    }
  }

  ~ProfScope() {
    if (!active_) return;
    auto& tls = detail::prof_tls();
    if (sampled_) {
      const std::uint64_t end = prof_rdtsc();
      detail::record_sample(
          stage_,
          tls.depth <= kProfMaxDepth ? static_cast<std::uint16_t>(tls.path)
                                     : 0,
          end > start_ ? end - start_ : 0);
    }
    if (tls.depth <= kProfMaxDepth) tls.path >>= 4;
    --tls.depth;
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint64_t start_ = 0;
  ProfStage stage_ = ProfStage::kCount;
  bool active_ = false;
  bool sampled_ = false;
};

#define UMON_PROF_CONCAT_(a, b) a##b
#define UMON_PROF_CONCAT(a, b) UMON_PROF_CONCAT_(a, b)
/// Profile the enclosing scope as one `stage` sample site.
#define UMON_PROF_SCOPE(stage)                        \
  ::umon::obs::ProfScope UMON_PROF_CONCAT(            \
      umon_prof_scope_, __COUNTER__)(::umon::obs::ProfStage::stage)

}  // namespace umon::obs
