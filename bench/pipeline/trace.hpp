// Set-up half of the pipeline benchmark: run the netsim fat tree once,
// record what the hosts transmitted, and keep it in the form the timed
// replay feeds to the pipeline. Nothing here is timed as part of an
// end-to-end metric; the simulator's cost never reaches a measured number.
#pragma once

#include <cstdint>
#include <vector>

#include "analyzer/groundtruth.hpp"
#include "common/types.hpp"
#include "sketch/params.hpp"
#include "sketch/wavesketch.hpp"
#include "workload/generator.hpp"

namespace umon::pbench {

/// One host transmission, as the host's WaveSketch sees it.
struct Packet {
  FlowKey flow;
  Nanos ts = 0;
  std::uint32_t size = 0;
  std::uint16_t host = 0;
};

struct TraceSpec {
  workload::WorkloadKind kind = workload::WorkloadKind::kHadoop;
  Nanos duration = 20 * kMilli;  ///< flow arrivals stop here
  Nanos horizon = 25 * kMilli;   ///< the simulator stops here
  Nanos tick = 0;                ///< epoch length; a multiple of the window
  std::uint64_t seed = 7;
};

/// One pass of input. A pass is `ticks` epochs long; the replay repeats it
/// with every timestamp and window shifted by whole passes, so consecutive
/// passes never share a window.
struct Trace {
  Nanos tick = 0;
  int ticks = 0;
  int hosts = 0;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;  ///< packets in one pass
  /// Packets by tick (emptied by presketch()).
  std::vector<std::vector<Packet>> packet_ticks;
  /// Report batches by [tick][host] (filled by presketch()).
  std::vector<std::vector<std::vector<sketch::TaggedReport>>> report_ticks;
  /// Flows of at least 100 KB: the paper's heavy flows, whose rate curves
  /// the accuracy metric compares against `truth`.
  std::vector<FlowKey> heavy;
  analyzer::GroundTruth truth;  ///< heavy flows only, pass 0 windows
  /// Indices into `heavy` of the flows that sent in each tick.
  std::vector<std::vector<std::uint32_t>> heavy_by_tick;

  [[nodiscard]] Nanos pass_length() const { return tick * ticks; }
};

[[nodiscard]] Trace make_trace(const TraceSpec& spec);

/// Wall time the set-up sketch pass spent in each sketch call.
struct SketchCost {
  double update_s = 0;
  double flush_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t flushes = 0;  ///< host-epochs flushed
};

/// Sketch every host's packets once, epoch by epoch, and keep each
/// (tick, host) report batch in place of the packets: the replay then
/// skips the sketch layer.
SketchCost presketch(Trace& tr, const sketch::WaveSketchParams& params);

}  // namespace umon::pbench
