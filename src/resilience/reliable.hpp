// umon::resilience — the reliable uplink layered over the lossy upload
// channel. The raw channel drops, delays, duplicates, and (under fault
// injection) corrupts payloads; PR 1 only *counted* the resulting sequence
// gaps. This wrapper makes the host→collector path recover instead:
//
//   host payload ──frame(CRC32C, frame_seq)──▶ forward UploadChannel ──▶
//     receiver: CRC reject ▸ dedup ▸ deliver ▸ cum-ACK + NACK frame ──▶
//   reverse UploadChannel (also lossy) ──▶ sender: release / retransmit
//
//   * Sender keeps every unacked frame in a bounded per-host retransmit
//     buffer; when the buffer is full the oldest frame is evicted and its
//     epoch declared unrecoverable (bounded memory beats unbounded hope).
//   * Retransmits fire on NACK (fast path, holdoff-guarded so ack storms
//     don't multiply traffic) and on RTO timeout with exponential backoff
//     capped at rto_max — the cap keeps late attempts frequent enough to
//     outlive a sustained fault window; after max_retries the frame
//     expires and its epoch is marked lost.
//   * Receiver verifies the CRC32C over header+payload (corrupted frames
//     are rejected, never decoded), suppresses duplicates/reorders with a
//     cumulative counter + above-window set, and acks every arrival so a
//     lost ack is repaired by the next one.
//   * An abandoned frame never wedges the stream: data frames advertise the
//     sender's lowest retained seq (base_seq) so the receiver advances its
//     cumulative counter past holes that will never be resent, and acks
//     carry max_seen so the sender releases any seq the NACK list did not
//     name (SACK-style) even while a hole is outstanding.
//
// Passthrough mode (cfg.enabled = false) keeps the exact legacy behavior —
// unframed payloads, fire-and-forget — so every driver routes through this
// wrapper unconditionally (umon-sca SA009 forbids raw channel sends) and
// reliability is a config bit, not a code path fork.
//
// Threading: single-threaded by design. send / tick / the channel sink
// callbacks all run on the driver thread in deterministic order; two runs
// with the same seeds replay byte-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "netsim/upload_channel.hpp"
#include "resilience/frame.hpp"
#include "telemetry/metrics.hpp"

namespace umon::obs {
class LineageTracker;
}

namespace umon::resilience {

struct ReliableConfig {
  /// false = passthrough: unframed payloads, no acks, no retransmits.
  bool enabled = true;
  /// Unacked frames held per host before the oldest is evicted (and its
  /// epoch declared unrecoverable). This is the protocol's memory bound.
  std::size_t retx_buffer_frames = 1024;
  /// First retransmit timeout; doubles (rto_backoff) per attempt until the
  /// rto_max ceiling. Capping the backoff keeps later attempts *frequent*:
  /// a sustained fault window (burst loss, corruption storm) is survived by
  /// whichever attempts land after it ends, so the retry budget buys
  /// independent chances instead of one ever-longer silence. At the
  /// defaults the full expiry horizon is Σ min(base_rto·2^i, rto_max)
  /// for i < max_retries ≈ 12.6 ms — the same bound the retransmit-buffer
  /// sizing math assumes.
  Nanos base_rto = 200 * kMicro;
  double rto_backoff = 2.0;
  Nanos rto_max = 1600 * kMicro;
  /// Send attempts per frame (initial + retransmits) before it expires.
  int max_retries = 10;
  /// Minimum spacing between retransmits of one frame, so a burst of acks
  /// carrying the same NACK does not multiply the resend.
  Nanos nack_holdoff = 100 * kMicro;
};

/// Counter view materialized from the link's private registry (same pattern
/// as CollectorStats: the registry is the source of truth).
struct ReliableStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_retransmitted = 0;  ///< nack + timeout
  std::uint64_t frames_retransmitted_nack = 0;     ///< resent on a NACK
  std::uint64_t frames_retransmitted_timeout = 0;  ///< resent at the RTO
  std::uint64_t frames_acked = 0;
  std::uint64_t frames_expired = 0;   ///< retry cap hit
  std::uint64_t frames_evicted = 0;   ///< retx buffer overflow
  std::uint64_t frames_corrupt = 0;   ///< CRC / framing reject at receiver
  std::uint64_t frames_duplicate = 0; ///< dedup suppressed
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t epochs_settled = 0;
  std::uint64_t epochs_recovered = 0;    ///< settled with zero expired frames
  std::uint64_t epochs_unrecovered = 0;  ///< settled with data declared lost
};

/// Outcome of one (host, epoch) as the protocol saw it. The driver maps
/// this onto FlowCurveStore confidence flags when sealing.
struct EpochStatus {
  bool settled = true;        ///< no frames outstanding
  bool recovered = true;      ///< no frame expired or was evicted
  bool retransmitted = false; ///< at least one frame needed a resend
};

class ReliableLink {
 public:
  /// Receives every in-order-or-not, deduplicated, CRC-clean data payload.
  using DeliverFn =
      std::function<void(int host, std::uint32_t epoch,
                         std::vector<std::uint8_t>&& payload)>;

  /// `reverse` may be null only in passthrough mode: a reliable link
  /// without an ack path cannot release anything, so the constructor forces
  /// cfg.enabled = false (with a warning) when `reverse` is null. The
  /// caller wires the channels' sinks to on_forward_delivery /
  /// on_reverse_delivery.
  ReliableLink(const ReliableConfig& cfg, netsim::UploadChannel& forward,
               netsim::UploadChannel* reverse);

  void set_deliver_hook(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Report-lineage tap: every frame event (send, retransmit, expiry,
  /// ack release, delivery) is recorded against its (host, epoch). Not
  /// owned; keep the tracker alive for the link's lifetime.
  void set_lineage(obs::LineageTracker* lineage) { lineage_ = lineage; }

  // --- host side -----------------------------------------------------------
  /// Submit one epoch payload at local time `now`. In reliable mode the
  /// payload is framed, buffered for retransmit, and tracked against its
  /// epoch; in passthrough mode it goes straight to the channel.
  void send(int host, std::uint32_t epoch, std::vector<std::uint8_t> payload,
            Nanos now);

  /// Drive retransmit timeouts up to `now`. Call once per simulation tick.
  void tick(Nanos now);

  // --- channel sinks -------------------------------------------------------
  void on_forward_delivery(netsim::UploadChannel::Delivery&& d);
  void on_reverse_delivery(netsim::UploadChannel::Delivery&& d);

  // --- settlement ----------------------------------------------------------
  /// Status of one epoch. Epochs the link never saw a frame for settle as
  /// recovered (an empty epoch has nothing to lose).
  [[nodiscard]] EpochStatus epoch_status(int host, std::uint32_t epoch) const;

  /// True once no frame is outstanding anywhere (end-of-run barrier).
  [[nodiscard]] bool all_settled() const;

  /// Earliest pending retransmit deadline, or -1 when nothing is
  /// outstanding. Lets the end-of-run settle loop step time instead of
  /// spinning.
  [[nodiscard]] Nanos next_deadline() const;

  /// Force-expire every outstanding frame (end of run, after the settle
  /// loop gave up): their epochs become unrecoverable.
  void expire_outstanding();

  [[nodiscard]] ReliableStats stats() const;
  [[nodiscard]] const ReliableConfig& config() const { return cfg_; }
  /// Private umon_resilience_* instruments, for the health sampler.
  [[nodiscard]] const telemetry::MetricRegistry& telemetry_registry() const {
    return reg_;
  }

 private:
  struct RetxEntry {
    std::uint32_t seq = 0;
    std::uint32_t epoch = 0;
    std::vector<std::uint8_t> frame;  ///< pristine framed bytes
    Nanos last_send = 0;
    Nanos next_retry = 0;
    int attempts = 1;  ///< sends so far (initial send counts)
  };
  struct SenderState {
    std::uint32_t next_frame_seq = 0;
    std::deque<RetxEntry> buffer;  ///< ascending seq
  };
  struct ReceiverState {
    std::uint32_t cum = 0;  ///< every frame_seq < cum received
    std::set<std::uint32_t> above;  ///< received out of order, >= cum
    std::uint32_t max_seen_next = 0;
  };
  struct EpochState {
    std::uint64_t outstanding = 0;
    std::uint64_t expired = 0;
    std::uint64_t retransmits = 0;
    bool counted_settled = false;
  };

  /// Resend `e`, counting it on `trigger` (retx_nack_ or retx_timeout_).
  void retransmit(int host, SenderState& st, RetxEntry& e, Nanos now,
                  telemetry::Counter* trigger);
  void expire_entry(int host, const RetxEntry& e, bool evicted);
  void release_entry(int host, const RetxEntry& e);
  void release_acked(int host, SenderState& st, const AckBody& body);
  void send_ack(int host, const ReceiverState& rs, Nanos now);
  void settle_if_done(EpochState& es);

  ReliableConfig cfg_;
  netsim::UploadChannel& forward_;
  netsim::UploadChannel* reverse_;
  DeliverFn deliver_;
  obs::LineageTracker* lineage_ = nullptr;

  std::unordered_map<int, SenderState> senders_;
  std::unordered_map<int, ReceiverState> receivers_;
  std::map<std::uint64_t, EpochState> epochs_;  ///< key = host<<32 | epoch

  telemetry::MetricRegistry reg_;
  telemetry::Counter* frames_sent_;
  /// umon_resilience_frames_retransmitted_total{trigger="nack"|"timeout"}
  telemetry::Counter* retx_nack_;
  telemetry::Counter* retx_timeout_;
  telemetry::Counter* frames_acked_;
  telemetry::Counter* frames_expired_;
  telemetry::Counter* frames_evicted_;
  telemetry::Counter* frames_corrupt_;
  telemetry::Counter* frames_duplicate_;
  telemetry::Counter* acks_sent_;
  telemetry::Counter* acks_received_;
  telemetry::Counter* epochs_settled_;
  telemetry::Counter* epochs_recovered_;
  telemetry::Counter* epochs_unrecovered_;
  telemetry::Gauge* retx_resident_;
};

}  // namespace umon::resilience
