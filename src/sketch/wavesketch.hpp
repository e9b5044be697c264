// WaveSketch basic version (Section 4.2): a Count-Min grid of WaveBuckets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "sketch/bucket.hpp"
#include "sketch/params.hpp"
#include "sketch/report.hpp"

namespace umon::sketch {

/// A bucket report tagged with its grid position, as uploaded to the
/// analyzer at the end of each measurement period.
// umon-sca: wire-struct
struct TaggedReport {
  int row = 0;
  std::uint32_t col = 0;
  /// Position in the host's upload stream (v2 wire field). The uplink stamps
  /// consecutive values so the collector can count gaps left by lost reports.
  std::uint32_t seq = 0;
  /// Set for heavy-part reports: the flow the bucket is dedicated to. Light
  /// (grid-addressed) reports leave it empty. v2 wire field.
  std::optional<FlowKey> flow;
  BucketReport report;
};

// Encoded field-wise by sketch::encode_report; batches of these move through
// the collector's shard queues, so moves must never throw mid-pipeline.
static_assert(std::is_nothrow_move_constructible_v<TaggedReport>);
static_assert(std::is_nothrow_move_assignable_v<TaggedReport>);

class WaveSketchBasic {
 public:
  explicit WaveSketchBasic(const WaveSketchParams& params);

  /// Update with a packet: `v` is its byte (or unit) contribution at
  /// timestamp `ts`.
  void update(const FlowKey& flow, Nanos ts, Count v) {
    update_window(flow, window_of(ts, params_.window_shift), v);
  }
  void update_window(const FlowKey& flow, WindowId w, Count v);

  /// Reconstruct the flow's window-counter series over the current period.
  /// Implements the Count-Min-style query: reconstruct the d candidate
  /// buckets and return the one with the smallest total count.
  /// The returned QueryResult pins the series to its absolute first window.
  struct QueryResult {
    WindowId w0 = 0;
    std::vector<double> series;
    [[nodiscard]] bool empty() const { return series.empty(); }
    /// Value at an absolute window id (0 outside the covered range).
    [[nodiscard]] double at(WindowId w) const {
      if (w < w0 || w >= w0 + static_cast<WindowId>(series.size())) return 0;
      return series[static_cast<std::size_t>(w - w0)];
    }
  };
  [[nodiscard]] QueryResult query(const FlowKey& flow) const;

  /// End the measurement period: upload every active bucket and reset.
  /// Discarding the result destroys the period's coefficients.
  [[nodiscard]] std::vector<TaggedReport> flush();

  /// Reports produced by mid-period rollovers (kept until flush()).
  [[nodiscard]] const std::vector<TaggedReport>& rolled_reports() const {
    return rolled_;
  }

  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] const WaveSketchParams& params() const { return params_; }

  /// Grid coordinates a flow hashes to (exposed for the full version's
  /// light-part subtraction and for tests).
  [[nodiscard]] std::uint32_t column(int row, const FlowKey& flow) const {
    return hashes_[static_cast<std::size_t>(row)].bucket(flow.packed(),
                                                         params_.width);
  }

  [[nodiscard]] const WaveBucket& bucket(int row, std::uint32_t col) const {
    return grid_[static_cast<std::size_t>(row) * params_.width + col];
  }

 private:
  WaveBucket& bucket_mut(int row, std::uint32_t col) {
    return grid_[static_cast<std::size_t>(row) * params_.width + col];
  }

  WaveSketchParams params_;
  std::vector<SeededHash> hashes_;
  std::vector<WaveBucket> grid_;
  std::vector<TaggedReport> rolled_;
};

}  // namespace umon::sketch
