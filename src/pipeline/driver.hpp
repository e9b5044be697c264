// umon::pipeline — the reporting-period loop that carries host sketches to
// the analyzer (§6): every tick, each host flushes one epoch of WaveSketch
// reports through its uplink, the upload channel and the ReliableLink into
// the sharded collector, and the analyzer stitches them into per-flow
// curves, written through to the optional durable store.
//
// The driver owns every layer of that path: the per-host sketches and
// uplinks, the forward (and, with a reliable uplink, reverse) upload
// channel, the link, the collector, the analyzer, and the optional store,
// lineage tracker, health monitor and fault injector. The caller owns the
// packet source and feeds every transmitted packet to on_packet(). One run:
//
//   auto p = Pipeline::create(cfg, &err);   // build, wire and start
//   Nanos t = p->run(horizon, source);      // source(t), then tick(t)
//   p->finish(t, mirrored);                 // settle, seal, stop, checkpoint
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "health/health.hpp"
#include "netsim/upload_channel.hpp"
#include "obs/lineage.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/reliable.hpp"
#include "sketch/wavesketch_full.hpp"
#include "store/store.hpp"
#include "uevent/acl.hpp"

namespace umon::pipeline {

struct PipelineConfig {
  int hosts = 16;
  /// The reporting period: every host flushes one epoch per tick.
  Nanos tick = 500 * kMicro;
  std::uint64_t seed = 7;
  int collector_shards = 2;
  /// Payload loss on the upload channel (and on the ack channel).
  double report_loss = 0.0;
  /// Upload-channel delay jitter; the tick must exceed 50 us + jitter so
  /// every payload of an epoch lands before the next tick seals it.
  Nanos channel_jitter = 0;
  /// Retransmitting uplink over a reverse ack channel; off = passthrough.
  bool uplink_reliable = false;
  std::size_t uplink_retx_buffer = 1024;
  bool gap_fill = false;
  /// Channel chaos, host stalls and shard crash/restarts; none if empty.
  std::optional<resilience::FaultPlan> fault_plan;
  /// Durable curve store; off while store.dir is empty.
  store::StoreConfig store;
  /// Scrub the store every N checkpoints (0 = never); each pass goes to
  /// on_scrub.
  int scrub_interval = 0;
  std::function<void(const store::ScrubReport&)> on_scrub;
  bool health = false;
  std::string health_alarms;  ///< "" = HealthMonitor::default_alarms()
  bool lineage = false;
};

class Pipeline {
 public:
  /// Builds, wires and starts every layer, and takes the health monitor's
  /// t=0 baseline: call right before the source starts running. Null (with
  /// `error` set) when the store cannot be opened or the health alarm rules
  /// do not parse.
  [[nodiscard]] static std::unique_ptr<Pipeline> create(PipelineConfig cfg,
                                                        std::string* error);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// The host-TX tap: one transmitted packet of `host`.
  void on_packet(int host, const PacketRecord& r) {
    sketches_[static_cast<std::size_t>(host)]->update(
        r.flow, r.timestamp, static_cast<Count>(r.size));
    if (mon_) {
      mon_->watermarks().note(health::Stage::kPacketEvent, r.timestamp);
      mon_->probe().observe(r.flow, r.timestamp, r.size);
    }
  }

  /// One reporting period ending at sim time `t`, after the source has run
  /// to `t`: due shard crash/restarts, deliver what the channels and the
  /// link have due, seal the settled epochs, flush every host that is not
  /// stalled, drain the collector, checkpoint the store and sample health.
  void tick(Nanos t);

  /// Every reporting period up to `horizon`: ticks at tick, 2 tick, ...,
  /// the last one clamped to `horizon`. Before each tick(t), `source(t)`
  /// runs the packet source to t; after it, `after_tick(t)` if set.
  /// Returns the last tick's time.
  Nanos run(Nanos horizon, const std::function<void(Nanos)>& source,
            const std::function<void(Nanos)>& after_tick = {});

  /// End of the run after the last tick at `t`: let in-flight frames
  /// settle, seal every outstanding epoch, ingest the switches' mirrored
  /// packets, stop the collector, checkpoint the store and take the
  /// closing health sample at `t + tick`.
  void finish(Nanos t, std::vector<uevent::MirroredPacket> mirrored = {});

  /// One store scrub pass, handed to on_scrub.
  void scrub();

  [[nodiscard]] analyzer::Analyzer& analyzer() { return an_; }
  [[nodiscard]] const collector::Collector& collector() const { return *col_; }
  [[nodiscard]] const resilience::ReliableLink& link() const { return *link_; }
  [[nodiscard]] const netsim::UploadChannel& channel() const {
    return *channel_;
  }
  /// Optional layers: null when off.
  [[nodiscard]] store::Store* store() { return store_.get(); }
  [[nodiscard]] const store::RecoveryInfo& store_recovery() const {
    return store_recovery_;
  }
  [[nodiscard]] health::HealthMonitor* monitor() { return mon_.get(); }
  [[nodiscard]] obs::LineageTracker* lineage() { return lineage_.get(); }
  [[nodiscard]] const resilience::FaultInjector* injector() const {
    return injector_.get();
  }

 private:
  struct PendingSeal {
    int host;
    std::uint32_t epoch;
    std::uint32_t end_seq;
    WindowId wfrom;  ///< first window this epoch covers
    WindowId wto;    ///< exclusive
    Nanos end_time;  ///< event time the epoch runs up to
  };
  struct PendingMark {
    WindowId from;
    WindowId to;
    analyzer::WindowConfidence conf;
  };

  explicit Pipeline(PipelineConfig cfg) : cfg_(std::move(cfg)) {}
  [[nodiscard]] std::string wire();
  void advance(Nanos t);
  void apply_marks();
  void seal_settled(bool force);
  void checkpoint();

  PipelineConfig cfg_;
  std::vector<PendingSeal> awaiting_;
  std::vector<PendingMark> marks_;
  /// (host << 32 | epoch) -> the epoch's window range, for seal-time
  /// sequence-gap losses.
  std::map<std::uint64_t, std::pair<WindowId, WindowId>> epoch_windows_;
  std::vector<Nanos> last_flush_;
  std::uint64_t checkpoints_ = 0;

  // Declaration order is the wiring order: every layer outlives the ones
  // that hold a pointer into it.
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches_;
  std::vector<collector::HostUplink> uplinks_;
  std::unique_ptr<resilience::FaultInjector> injector_;
  std::unique_ptr<obs::LineageTracker> lineage_;
  analyzer::Analyzer an_;
  std::unique_ptr<store::Store> store_;
  store::RecoveryInfo store_recovery_;
  std::unique_ptr<collector::Collector> col_;
  std::unique_ptr<netsim::UploadChannel> channel_;
  std::unique_ptr<netsim::UploadChannel> reverse_;
  std::unique_ptr<resilience::ReliableLink> link_;
  std::unique_ptr<health::HealthMonitor> mon_;
};

}  // namespace umon::pipeline
