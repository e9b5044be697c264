// The μMon pipeline as the benchmark assembles it from each layer's public
// API, the same way examples/umon_sim.cpp does in its chunked loop:
//
//   WaveSketchFull::update / flush_reports      (one sketch per host)
//   HostUplink::encode_epoch                    (one uplink per host)
//   ReliableLink over two UploadChannels        (data + ack direction)
//   Collector submit / seal_epoch / drain       (sharded decode)
//   Analyzer with Store as its curve sink       (seal_epoch + maintain)
//   serve::Server + Endpoints                   (/api/v1/query)
//
// Every call the replay loop makes into a layer is wrapped in a
// telemetry::ScopedSpan of category "bench"; the spans cost one relaxed
// load unless the TraceRecorder is enabled (traced runs only).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "collector/collector.hpp"
#include "collector/uplink.hpp"
#include "netsim/upload_channel.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/reliable.hpp"
#include "serve/endpoints.hpp"
#include "serve/server.hpp"
#include "sketch/wavesketch_full.hpp"
#include "store/store.hpp"
#include "trace.hpp"

namespace umon::pbench {

inline constexpr const char* kSpanCategory = "bench";
/// Pipeline::finish steps sim time by at most this many ticks.
inline constexpr int kMaxSettleTicks = 256;

struct PipelineConfig {
  int hosts = 16;
  /// Build per-host sketches (packet replay). Report replay skips them.
  bool sketches = true;
  sketch::WaveSketchParams sketch;
  int shards = 2;
  std::string store_dir;
  std::uint64_t seed = 7;
  /// Channel chaos schedule applied to both link directions; null = none.
  const resilience::FaultPlan* chaos = nullptr;
};

/// What one tick feeds the pipeline: either packets for the sketches or
/// per-host report batches that stand in for the sketch flush.
struct TickInput {
  std::span<const Packet> packets;
  Nanos ts_shift = 0;  ///< added to every packet timestamp
  const std::vector<std::vector<sketch::TaggedReport>>* reports = nullptr;
  WindowId w_shift = 0;  ///< added to every replayed report's w0
};

/// Monotone counts of the replay; the traced run diffs two snapshots.
struct PipelineCounts {
  std::uint64_t ticks = 0;
  std::uint64_t host_epochs = 0;
  std::uint64_t reports = 0;        ///< reports handed to the uplinks
  std::uint64_t payloads = 0;       ///< encoded payloads sent
  std::uint64_t payload_bytes = 0;  ///< encoded bytes, before framing
  std::uint64_t submitted = 0;      ///< payloads the link delivered
  std::uint64_t store_seals = 0;
  std::uint64_t seal_failures = 0;
  std::int64_t queue_depth_max = 0;  ///< sampled only when asked to
};

class Pipeline {
 public:
  /// Constructs and starts every layer: this is the benchmark's set-up.
  explicit Pipeline(const PipelineConfig& cfg);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// One epoch: deliver what is due by sim time `t`, seal settled epochs,
  /// flush every host's epoch ending at `t` into the uplink, drain the
  /// collector, and seal the store.
  void tick(Nanos t, const TickInput& in);

  /// End of the replay: let retransmits land (stepping sim time past `t` by
  /// `step`), expire what cannot, and seal every outstanding epoch durably.
  void finish(Nanos t, Nanos step);

  /// Take `nanos` of wall time the replay loop spent outside the pipeline
  /// (work between passes) out of every freshness interval that spans it.
  void exclude(std::uint64_t nanos) { excluded_ += nanos; }

  /// Window id (exclusive) up to which every host's epochs are durable in
  /// the store; -1 before the first one.
  [[nodiscard]] WindowId durable_window() const { return durable_window_; }

  [[nodiscard]] const PipelineCounts& counts() const { return counts_; }
  /// Wall-clock freshness samples (ms), one per sealed (host, epoch).
  [[nodiscard]] const std::vector<double>& freshness_ms() const {
    return freshness_ms_;
  }
  /// (host << 32 | epoch) keys the link or the seal declared lost.
  [[nodiscard]] const std::set<std::uint64_t>& lost_epochs() const {
    return lost_;
  }
  /// Window range [first, second) of epoch `e` (every host shares it).
  [[nodiscard]] std::pair<WindowId, WindowId> epoch_windows(
      std::uint32_t e) const {
    return {epochs_[e].wfrom, epochs_[e].wto};
  }

  void set_sample_queue_depth(bool on) { sample_queue_depth_ = on; }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] analyzer::Analyzer& analyzer() { return an_; }
  [[nodiscard]] store::Store& store() { return *store_; }
  [[nodiscard]] const collector::Collector& collector() const { return *col_; }
  [[nodiscard]] const resilience::ReliableLink& link() const { return *link_; }
  [[nodiscard]] const netsim::UploadChannel& forward() const { return *fwd_; }
  [[nodiscard]] const serve::Endpoints& endpoints() const {
    return *endpoints_;
  }

  /// Stop the serving thread and the collector workers (idempotent).
  void stop();

 private:
  struct EpochRec {
    WindowId wfrom = 0;
    WindowId wto = 0;
    std::uint64_t sent_ns = 0;  ///< now() when handed to the uplink
  };
  struct Awaiting {
    int host = 0;
    std::uint32_t epoch = 0;
    std::uint32_t end_seq = 0;
  };
  struct Mark {
    WindowId from = 0;
    WindowId to = 0;
    analyzer::WindowConfidence conf = analyzer::WindowConfidence::kCovered;
  };

  /// Wall clock with the excluded time taken out.
  [[nodiscard]] std::uint64_t now() const;
  void deliver_and_retransmit(Nanos t);
  void seal_settled(bool force);
  void mark_lost(int host, std::uint32_t epoch);
  void apply_marks();
  void seal_store();

  PipelineCounts counts_;
  std::vector<EpochRec> epochs_;
  std::vector<Awaiting> awaiting_;
  std::vector<Mark> marks_;
  std::set<std::uint64_t> lost_;
  std::vector<double> freshness_ms_;
  std::vector<std::int64_t> durable_epoch_;  ///< per host, -1 = none
  WindowId durable_window_ = -1;
  std::uint64_t excluded_ = 0;
  Nanos last_flush_ = 0;
  bool sample_queue_depth_ = false;

  /// (host << 32 | epoch) of epochs the collector flushed into the
  /// analyzer; written by shard workers, consumed after each store seal.
  std::mutex flushed_mutex_;
  std::vector<std::uint64_t> flushed_;

  // Declaration order is the wiring order; destruction runs in reverse
  // after stop() has joined every thread.
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches_;
  std::vector<collector::HostUplink> uplinks_;
  analyzer::Analyzer an_;
  std::unique_ptr<store::Store> store_;
  store::RecoveryInfo rinfo_;
  std::unique_ptr<collector::Collector> col_;
  std::unique_ptr<resilience::FaultInjector> injector_;
  std::unique_ptr<netsim::UploadChannel> fwd_;
  std::unique_ptr<netsim::UploadChannel> rev_;
  std::unique_ptr<resilience::ReliableLink> link_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Endpoints> endpoints_;
};

}  // namespace umon::pbench
