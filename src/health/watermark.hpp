// umon::health — end-to-end freshness watermarks.
//
// Each pipeline stage publishes the event time (simulation nanoseconds of
// the *measured traffic*, not processing time) it has fully incorporated:
//
//   packet_event      host TX hook saw a packet with this timestamp
//   sketch_seal       a host sketch sealed an epoch ending at this time
//   collector_decode  a decode shard reconstructed windows up to this time
//   analyzer_curve    curves covering up to this time are queryable
//
// The high watermark of a stage is monotone by construction (fetch-max), so
// out-of-order batches — reordered upload payloads, shards racing each
// other — can never make a stage appear to move backwards. Freshness of a
// stage is `now - high`; backlog between adjacent stages is the event-time
// span the downstream stage has not yet absorbed. Both are first-class
// health series.
//
// note() is called from the simulation thread *and* from collector shard
// workers, so the watermark cells are atomics. Relaxed ordering is
// deliberate and registered in tools/sca/atomics_policy.txt: each cell is
// an independent monotonic max/min and every reader (the health sampler)
// tolerates a stale value — it only ever under-reports progress by one
// sample tick.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace umon::health {

enum class Stage : int {
  kPacketEvent = 0,
  kSketchSeal = 1,
  kCollectorDecode = 2,
  kAnalyzerCurve = 3,
  /// Reliable-uplink settlement: every frame of epochs ending at this event
  /// time was either delivered (possibly after retransmits) or explicitly
  /// declared lost. Curves past this mark carry final confidence flags.
  kResilience = 4,
  /// Durable-store seal: curves up to this event time are fsync'd into the
  /// segment store and would survive a crash + reopen. The gap between
  /// analyzer_curve and store_seal is the data at risk.
  kStoreSeal = 5,
};

inline constexpr std::size_t kStageCount = 6;

[[nodiscard]] constexpr const char* to_string(Stage s) {
  switch (s) {
    case Stage::kPacketEvent: return "packet_event";
    case Stage::kSketchSeal: return "sketch_seal";
    case Stage::kCollectorDecode: return "collector_decode";
    case Stage::kAnalyzerCurve: return "analyzer_curve";
    case Stage::kResilience: return "resilience";
    case Stage::kStoreSeal: return "store_seal";
  }
  return "unknown";
}

class Watermarks {
 public:
  /// Sentinel for "stage has not seen any event yet".
  static constexpr Nanos kUnset = -1;

  Watermarks() {
    for (auto& c : cells_) {
      c.low.store(kUnset, std::memory_order_relaxed);
      c.high.store(kUnset, std::memory_order_relaxed);
    }
  }

  /// Record that `stage` has fully processed events up to `event_time`.
  /// Thread-safe; late or out-of-order calls can only widen [low, high].
  void note(Stage stage, Nanos event_time) {
    Cell& c = cells_[static_cast<std::size_t>(stage)];
    Nanos lo = c.low.load(std::memory_order_relaxed);
    while ((lo == kUnset || event_time < lo) &&
           !c.low.compare_exchange_weak(lo, event_time,
                                        std::memory_order_relaxed)) {
    }
    Nanos hi = c.high.load(std::memory_order_relaxed);
    while (event_time > hi &&
           !c.high.compare_exchange_weak(hi, event_time,
                                         std::memory_order_relaxed)) {
    }
  }

  /// Earliest event time the stage ever saw (kUnset before any note()).
  [[nodiscard]] Nanos low(Stage stage) const {
    return cells_[static_cast<std::size_t>(stage)].low.load(
        std::memory_order_relaxed);
  }

  /// Latest event time the stage has fully processed (kUnset before any
  /// note()). Monotone non-decreasing over a run.
  [[nodiscard]] Nanos high(Stage stage) const {
    return cells_[static_cast<std::size_t>(stage)].high.load(
        std::memory_order_relaxed);
  }

  /// Staleness of a stage at simulation time `now`: how far behind the
  /// present its high watermark sits. A stage that never saw an event is
  /// maximally stale (`now` itself, clamped at zero).
  [[nodiscard]] Nanos freshness_lag(Stage stage, Nanos now) const {
    const Nanos hi = high(stage);
    const Nanos lag = hi == kUnset ? now : now - hi;
    return lag < 0 ? 0 : lag;
  }

  /// Event-time span the downstream stage has not yet absorbed from the
  /// upstream one (0 when downstream has caught up or upstream is silent).
  [[nodiscard]] Nanos backlog(Stage upstream, Stage downstream) const {
    const Nanos up = high(upstream);
    if (up == kUnset) return 0;
    const Nanos down = high(downstream);
    const Nanos lag = down == kUnset ? up : up - down;
    return lag < 0 ? 0 : lag;
  }

 private:
  struct Cell {
    std::atomic<Nanos> low{kUnset};
    std::atomic<Nanos> high{kUnset};
  };
  Cell cells_[kStageCount];
};

}  // namespace umon::health
