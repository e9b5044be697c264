// Host-side upload agent: the producer end of the collector pipeline. At
// each measurement-period boundary it flushes the host's sketch, stamps
// monotonically increasing per-host sequence numbers, and encodes the
// reports into bounded payloads (one upload datagram each). The end_seq it
// tracks is what seal_epoch() needs to count trailing losses exactly.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/prof.hpp"
#include "sketch/serialize.hpp"
#include "sketch/wavesketch_full.hpp"

namespace umon::collector {

class HostUplink {
 public:
  // umon-sca: wire-struct
  struct Payload {
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> bytes;
    std::size_t reports = 0;
  };
  static_assert(std::is_nothrow_move_constructible_v<Payload>,
                "payloads move through the lossy upload channel");
  // umon-sca: wire-struct
  struct EpochUpload {
    std::uint32_t epoch = 0;
    std::uint32_t end_seq = 0;  ///< pass to Collector::seal_epoch
    std::size_t reports = 0;
    std::vector<Payload> payloads;
  };
  static_assert(std::is_nothrow_move_constructible_v<EpochUpload>);

  explicit HostUplink(int host, std::size_t max_reports_per_payload = 256)
      : host_(host),
        max_reports_(max_reports_per_payload == 0 ? 1
                                                  : max_reports_per_payload) {}

  /// Flush the sketch and encode one epoch's upload. Advances the epoch and
  /// sequence counters even if the result is later lost in transit — that
  /// is exactly how the collector detects the loss. Discarding the return
  /// value silently loses the epoch while still consuming its sequence
  /// range, hence [[nodiscard]].
  [[nodiscard]] EpochUpload flush_epoch(sketch::WaveSketchFull& sk,
                                        bool include_light = true) {
    return encode_epoch(sk.flush_reports(include_light));
  }

  /// Encode an explicit report batch as one epoch (synthetic sources and
  /// tests). Reports are stamped seq = next_seq, next_seq + 1, ...
  [[nodiscard]] EpochUpload encode_epoch(
      std::vector<sketch::TaggedReport> reports) {
    UMON_PROF_SCOPE(kUplinkEncode);
    EpochUpload up;
    up.epoch = epoch_++;
    up.reports = reports.size();
    const std::span<const sketch::TaggedReport> all(reports);
    for (std::size_t i = 0; i < all.size(); i += max_reports_) {
      const std::size_t n = std::min(max_reports_, all.size() - i);
      Payload p;
      p.epoch = up.epoch;
      p.reports = n;
      p.bytes = sketch::encode_batch(all.subspan(i, n), next_seq_);
      next_seq_ += static_cast<std::uint32_t>(n);
      up.payloads.push_back(std::move(p));
    }
    up.end_seq = next_seq_;
    return up;
  }

  [[nodiscard]] int host() const { return host_; }
  [[nodiscard]] std::uint32_t next_epoch() const { return epoch_; }
  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }

 private:
  int host_;
  std::size_t max_reports_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t epoch_ = 0;
};

}  // namespace umon::collector
