// umon::collector — the telemetry ingest tier between hosts and the
// analyzer (the collection layer the paper's Section 6 assumes but the
// in-process benches short-circuit).
//
// Pipeline shape:
//
//   host uplinks ──payloads──▶ front door ──frames──▶ shard queues
//                              (framing scan,          (bounded,
//                               flow-hash split,        backpressure
//                               seq-gap accounting)     policy)
//                                                          │ decode +
//                                                          ▼ reconstruct
//                                                   per-shard epoch staging
//                                                          │ seal barrier
//                                                          ▼
//                                                 Analyzer::ingest_report_batch
//                                                 (serialized, one batch per
//                                                  sealed (host, epoch))
//
// * The front door performs a cheap framing-level scan (no coefficient
//   parsing, no allocation per coefficient) and routes every report frame by
//   FlowKey hash, so all fragments of a flow land on the same shard; light
//   (grid-addressed) reports route by (host, row, col).
// * Shard workers do the expensive work in parallel: full decode, wavelet
//   reconstruction, and zero-stripping into sparse fragments.
// * The epoch manager seals a (host, epoch) once every shard has drained its
//   share, then flushes the merged fragments into the Analyzer in one batch
//   under the sink mutex — the Analyzer itself stays single-threaded.
// * Loss is first-class: per-host sequence accounting counts reports that
//   never arrived (upload-channel drops), bounded queues count what the
//   backpressure policy shed, and malformed payloads are counted instead of
//   trusted. decode_report()'s nullopt path finally has a consumer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/batch_queue.hpp"
#include "common/types.hpp"
#include "telemetry/metrics.hpp"
#include "uevent/acl.hpp"

namespace umon::obs {
class LineageTracker;
}

namespace umon::collector {

struct CollectorConfig {
  int shards = 4;
  /// Batches (not reports) each shard queue holds before the policy kicks in.
  std::size_t queue_capacity = 256;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  int window_shift = kDefaultWindowShift;
};

/// Snapshot of the collector's counters. Reports can leave the pipeline for
/// exactly four reasons, each with its own counter: lost upstream (sequence
/// gaps), shed by backpressure, malformed, or decoded and delivered.
///
/// This struct is a *view*: the source of truth is the collector's private
/// telemetry::MetricRegistry (umon_collector_* instruments), and stats()
/// materializes the view from one registry snapshot pass.
struct CollectorStats {
  std::uint64_t payloads_submitted = 0;
  std::uint64_t payloads_malformed = 0;  ///< framing scan failed; discarded
  std::uint64_t batches_enqueued = 0;
  std::uint64_t batches_shed = 0;        ///< overflow policy dropped a batch
  std::uint64_t batches_rejected = 0;    ///< shed subset: incoming batch refused
  std::uint64_t batches_evicted = 0;     ///< shed subset: oldest batch evicted
  std::uint64_t reports_scanned = 0;
  std::uint64_t reports_decoded = 0;
  std::uint64_t reports_malformed = 0;   ///< shard-side decode_report failed
  std::uint64_t reports_shed = 0;        ///< inside batches_shed
  std::uint64_t reports_lost = 0;        ///< sequence gaps (upstream loss)
  std::uint64_t mirror_packets = 0;
  std::uint64_t epochs_flushed = 0;
  std::uint64_t fragments_ingested = 0;
  std::uint64_t batches_crashed = 0;    ///< discarded by a crashed shard
  std::uint64_t reports_crashed = 0;    ///< reports inside those batches
  std::uint64_t fragments_crashed = 0;  ///< staged fragments lost at crash
  std::uint64_t shard_crashes = 0;
  std::uint64_t shard_restarts = 0;
  std::unordered_map<int, std::uint64_t> bytes_by_host;
};

class Collector {
 public:
  Collector(const CollectorConfig& cfg, analyzer::Analyzer& sink);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Spawn the shard workers. Must be called before submitting.
  void start();
  /// Drain every queue, flush all staged epochs (sealed or not), and join
  /// the workers. Idempotent. After stop() the sink holds everything the
  /// pipeline accepted.
  void stop();

  /// Block until every message enqueued before this call has been fully
  /// processed — including the sink flush of any epoch whose seal was
  /// already submitted. Workers keep running. This is the synchronization
  /// point deterministic drivers (health sampling, tests) use to observe a
  /// quiescent pipeline without stopping it. Returns the number of shards
  /// that were *live* (not crashed) when they acked the barrier, so a
  /// driver can tell a quiescent pipeline from one that merely discarded
  /// its backlog: a crashed shard still consumes (and counts) its queue, so
  /// the barrier never wedges, but its data was shed, not processed.
  /// Returns 0 before start().
  int drain();

  /// Simulate a shard crash: the shard loses its staged epoch state and
  /// discards every data batch until restart_shard(). Control messages
  /// (seals, barriers) keep flowing so the epoch barrier and drain() stay
  /// live — a crashed shard contributes nothing, it does not wedge the
  /// pipeline. Thread-safe; no-op for out-of-range shards.
  void crash_shard(int shard);
  void restart_shard(int shard);

  /// Fires when the pipeline discovers `lost` reports missing for
  /// (host, epoch) — the signal graceful-degradation drivers use to flag
  /// the affected windows instead of silently serving zeros. Sequence gaps
  /// fire inside seal_epoch() with the front mutex held. Shard-crash
  /// damage fires from drain() or stop() on the calling thread, once the
  /// epoch's seal barrier proved every batch enqueued before the seal was
  /// consumed — damage a worker records after the seal call can then never
  /// be missed. Must be cheap and must not call back into the collector.
  /// Set before start().
  void set_epoch_loss_hook(
      std::function<void(int host, std::uint32_t epoch, std::uint64_t lost)>
          hook) {
    epoch_loss_hook_ = std::move(hook);
  }

  /// Observability taps for end-to-end freshness tracking. `decode` fires
  /// from shard workers after a batch decode with the largest *event time*
  /// (window-end, collector clock domain) reconstructed in that batch —
  /// flow-tagged reports only. `curve` fires after a sealed epoch lands in
  /// the analyzer, with the largest event time that epoch made queryable.
  /// Set before start(); hooks must be thread-safe.
  void set_decode_event_hook(std::function<void(Nanos)> hook) {
    decode_event_hook_ = std::move(hook);
  }
  void set_curve_event_hook(std::function<void(Nanos)> hook) {
    curve_event_hook_ = std::move(hook);
  }

  /// Fires after a sealed (host, epoch) batch has fully flushed into the
  /// analyzer sink — everything that epoch carried is now queryable (and,
  /// with a spill sink attached, already written through). Durable-store
  /// drivers use it as their flush barrier: sealing the store epoch here
  /// guarantees the on-disk epoch never contains half a collector epoch.
  /// Runs on the flushing thread with the sink lock released; must not call
  /// back into the collector. Set before start().
  void set_epoch_seal_hook(std::function<void(int host, std::uint32_t epoch)> hook) {
    epoch_seal_hook_ = std::move(hook);
  }

  /// Report-lineage tap: shard workers record every (host, epoch) batch
  /// decode through it. Thread-safe on the tracker's side; set before
  /// start() and keep the tracker alive until after stop().
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }

  // --- producer side (thread-safe; serialized at the front door) -----------
  /// One encode_batch() payload from `host` for measurement period `epoch`.
  /// Returns false if the payload failed the framing scan (malformed).
  /// The rejection is also counted in stats(); callers that deliberately
  /// tolerate malformed uplinks should still say so with a (void) cast.
  [[nodiscard]] bool submit_report_payload(int host, std::uint32_t epoch,
                                           std::vector<std::uint8_t> payload);

  /// A batch of mirrored event packets from the uEvent pipeline.
  void submit_mirror_batch(std::vector<uevent::MirroredPacket> packets);

  /// Declare `epoch` of `host` complete. `end_seq` is the host's next unused
  /// sequence number; providing it lets the collector count trailing losses
  /// (payloads dropped after the last one that arrived). Once every shard
  /// drains its share of the epoch, the merged batch flushes to the sink.
  void seal_epoch(int host, std::uint32_t epoch,
                  std::optional<std::uint32_t> end_seq = std::nullopt);

  /// One-pass snapshot of every counter through the registry (consistent
  /// enough for monitoring; exact once stop() returned).
  [[nodiscard]] CollectorStats stats() const;
  [[nodiscard]] const CollectorConfig& config() const { return cfg_; }

  /// The collector's private metric registry (umon_collector_* series:
  /// the CollectorStats counters plus per-shard queue-depth gauges and
  /// decode/flush latency histograms). Pass it to the telemetry exporters
  /// alongside MetricRegistry::global().
  [[nodiscard]] const telemetry::MetricRegistry& telemetry_registry() const;

 private:
  struct ShardMsg;
  struct Shard;
  struct HostSeqState;
  struct PendingEpoch;

  void worker(int shard_id);
  void handle_reports(int shard_id, ShardMsg& msg);
  void handle_seal(int shard_id, const ShardMsg& msg);
  void flush_epoch_to_sink(PendingEpoch&& done);

  CollectorConfig cfg_;
  analyzer::Analyzer& sink_;
  obs::LineageTracker* lineage_ = nullptr;
  std::function<void(Nanos)> decode_event_hook_;
  std::function<void(Nanos)> curve_event_hook_;
  std::function<void(int, std::uint32_t, std::uint64_t)> epoch_loss_hook_;
  std::function<void(int, std::uint32_t)> epoch_seal_hook_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  bool running_ = false;

  /// Serializes submit/seal callers; owns the sequence accounting and the
  /// per-host byte tallies.
  mutable std::mutex front_mutex_;
  std::unordered_map<int, HostSeqState> seq_state_;
  std::unordered_map<int, std::uint64_t> bytes_by_host_;
  std::size_t mirror_rr_ = 0;  ///< round-robin cursor for mirror batches

  /// Guards the epoch-completion barrier state.
  mutable std::mutex epoch_mutex_;
  std::unordered_map<std::uint64_t, PendingEpoch> pending_;
  /// Completed epochs in completion (= seal) order, awaiting the flusher.
  std::vector<PendingEpoch> ready_;
  bool flushing_ = false;  ///< a shard worker is draining ready_

  /// Record that `count` reports/fragments of (host, epoch) were discarded
  /// by a crashed shard (called from shard workers).
  void note_crash_damage(int host, std::uint32_t epoch, std::uint64_t count);
  /// Move (host, epoch)'s accumulated crash damage to the settled list.
  /// Called once the epoch's seal barrier completed (all shards acked), so
  /// queue FIFO guarantees every pre-seal batch was already consumed and
  /// its damage recorded.
  void settle_crash_damage(std::uint64_t key);
  /// Fire the loss hook for every settled damage record (caller thread).
  void fire_settled_damage();

  struct SettledDamage {
    int host;
    std::uint32_t epoch;
    std::uint64_t lost;
  };

  /// (host << 32 | epoch) keys that lost batches or staged fragments to a
  /// shard crash. Written by shard workers; moved to settled_damage_ at the
  /// epoch seal barrier (or the stop() sweep) and dispatched through the
  /// loss hook from drain()/stop() so the hook never races the workers.
  mutable std::mutex crash_mutex_;
  std::map<std::uint64_t, std::uint64_t> crash_damage_;
  std::vector<SettledDamage> settled_damage_;

  /// Serializes every call into the (externally synchronized) Analyzer.
  std::mutex sink_mutex_;

  // Registry-backed instruments shared across threads (relaxed; exact once
  // stop() returns). Private per instance so stats stay attributable.
  struct Instruments;
  std::unique_ptr<Instruments> ins_;
};

}  // namespace umon::collector
