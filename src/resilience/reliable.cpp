#include "resilience/reliable.hpp"

#include <algorithm>

#include "obs/lineage.hpp"
#include "telemetry/log.hpp"

namespace umon::resilience {
namespace {

std::uint64_t epoch_key(int host, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
         epoch;
}

std::uint32_t uhost(int host) { return static_cast<std::uint32_t>(host); }

}  // namespace

ReliableLink::ReliableLink(const ReliableConfig& cfg,
                           netsim::UploadChannel& forward,
                           netsim::UploadChannel* reverse)
    : cfg_(cfg), forward_(forward), reverse_(reverse) {
  if (cfg_.enabled && reverse_ == nullptr) {
    // Reliable mode without an ack path would never release a frame:
    // everything expires at the retry cap and every epoch reports
    // unrecovered. Degrade loudly to passthrough instead.
    UMON_LOG(kWarn, "resilience",
             "reliable mode requires a reverse channel; forcing passthrough");
    cfg_.enabled = false;
  }
  if (cfg_.retx_buffer_frames == 0) cfg_.retx_buffer_frames = 1;
  if (cfg_.max_retries < 1) cfg_.max_retries = 1;
  if (cfg_.base_rto < kMicro) cfg_.base_rto = kMicro;
  if (cfg_.rto_backoff < 1.0) cfg_.rto_backoff = 1.0;
  if (cfg_.rto_max < cfg_.base_rto) cfg_.rto_max = cfg_.base_rto;
  frames_sent_ = reg_.counter("umon_resilience_frames_sent_total", {},
                              "Data frames handed to the forward channel");
  retx_nack_ = reg_.counter("umon_resilience_frames_retransmitted_total",
                            {{"trigger", "nack"}},
                            "Data frames resent, by trigger: NACK or RTO");
  retx_timeout_ = reg_.counter("umon_resilience_frames_retransmitted_total",
                               {{"trigger", "timeout"}},
                               "Data frames resent, by trigger: NACK or RTO");
  frames_acked_ = reg_.counter("umon_resilience_frames_acked_total", {},
                               "Frames released by cumulative acks");
  frames_expired_ = reg_.counter("umon_resilience_frames_expired_total", {},
                                 "Frames abandoned at the retry cap");
  frames_evicted_ =
      reg_.counter("umon_resilience_frames_evicted_total", {},
                   "Frames evicted by the bounded retransmit buffer");
  frames_corrupt_ =
      reg_.counter("umon_resilience_frames_corrupt_total", {},
                   "Frames rejected by CRC or framing checks");
  frames_duplicate_ =
      reg_.counter("umon_resilience_frames_duplicate_total", {},
                   "Duplicate data frames suppressed at the receiver");
  acks_sent_ = reg_.counter("umon_resilience_acks_sent_total", {},
                            "ACK frames sent over the reverse channel");
  acks_received_ = reg_.counter("umon_resilience_acks_received_total", {},
                                "ACK frames decoded by the sender");
  epochs_settled_ = reg_.counter("umon_resilience_epochs_settled_total", {},
                                 "Epochs with no frame outstanding");
  epochs_recovered_ =
      reg_.counter("umon_resilience_epochs_recovered_total", {},
                   "Settled epochs with every frame delivered");
  epochs_unrecovered_ =
      reg_.counter("umon_resilience_epochs_unrecovered_total", {},
                   "Settled epochs that lost at least one frame");
  retx_resident_ = reg_.gauge("umon_resilience_retx_buffer_frames", {},
                              "Unacked frames resident across all hosts");
}

void ReliableLink::send(int host, std::uint32_t epoch,
                        std::vector<std::uint8_t> payload, Nanos now) {
  if (!cfg_.enabled) {
    // Passthrough keeps the legacy fire-and-forget path byte-identical.
    // umon-sca: allow(SA009) this wrapper IS the sanctioned send site.
    (void)forward_.send(host, epoch, std::move(payload), now);
    return;
  }
  SenderState& st = senders_[host];
  RetxEntry e;
  e.seq = st.next_frame_seq++;
  e.epoch = epoch;
  e.last_send = now;
  e.next_retry = now + cfg_.base_rto;
  e.attempts = 1;

  EpochState& es = epochs_[epoch_key(host, epoch)];
  es.outstanding += 1;

  if (st.buffer.size() >= cfg_.retx_buffer_frames) {
    // Bounded memory: the oldest unacked frame gives way and its epoch is
    // declared unrecoverable — visible degradation, not silent growth.
    expire_entry(host, st.buffer.front(), /*evicted=*/true);
    st.buffer.pop_front();
  }
  // base_seq = lowest retained seq after the eviction above: every seq
  // below it was acked or abandoned, so the receiver stops waiting for it.
  const std::uint32_t base = st.buffer.empty() ? e.seq : st.buffer.front().seq;
  e.frame = encode_data_frame(static_cast<std::uint32_t>(host), e.seq, epoch,
                              base, payload);
  frames_sent_->inc();
  retx_resident_->add(1);
  if (lineage_ != nullptr) lineage_->on_frame_sent(uhost(host), epoch);
  // umon-sca: allow(SA009) this wrapper IS the sanctioned send site.
  (void)forward_.send(host, epoch, e.frame, now);
  st.buffer.push_back(std::move(e));
}

void ReliableLink::retransmit(int host, SenderState& st, RetxEntry& e,
                              Nanos now, telemetry::Counter* trigger) {
  e.attempts += 1;
  e.last_send = now;
  double rto = static_cast<double>(cfg_.base_rto);
  const double cap = static_cast<double>(cfg_.rto_max);
  for (int i = 1; i < e.attempts && rto < cap; ++i) rto *= cfg_.rto_backoff;
  if (rto > cap) rto = cap;
  e.next_retry = now + static_cast<Nanos>(rto);
  trigger->inc();
  epochs_[epoch_key(host, e.epoch)].retransmits += 1;
  if (lineage_ != nullptr) {
    lineage_->on_frame_retransmitted(uhost(host), e.epoch);
  }
  // Retransmits carry the *current* base so the receiver learns about any
  // frame abandoned since the original send.
  rewrite_base_seq(e.frame, st.buffer.front().seq);
  // umon-sca: allow(SA009) this wrapper IS the sanctioned send site.
  (void)forward_.send(host, e.epoch, e.frame, now);
}

void ReliableLink::expire_entry(int host, const RetxEntry& e, bool evicted) {
  (evicted ? frames_evicted_ : frames_expired_)->inc();
  retx_resident_->add(-1);
  if (lineage_ != nullptr) {
    lineage_->on_frame_expired(uhost(host), e.epoch, evicted);
  }
  const std::uint64_t key = epoch_key(host, e.epoch);
  EpochState& es = epochs_[key];
  es.expired += 1;
  if (es.outstanding > 0) es.outstanding -= 1;
  UMON_LOG(kWarn, "resilience",
           evicted ? "retx buffer evicted frame" : "frame expired at retry cap",
           {"host", std::to_string(host)},
           {"epoch", std::to_string(e.epoch)},
           {"seq", std::to_string(e.seq)});
  settle_if_done(es);
}

void ReliableLink::release_entry(int host, const RetxEntry& e) {
  frames_acked_->inc();
  retx_resident_->add(-1);
  if (lineage_ != nullptr) lineage_->on_frame_acked(uhost(host), e.epoch);
  EpochState& es = epochs_[epoch_key(host, e.epoch)];
  if (es.outstanding > 0) es.outstanding -= 1;
  settle_if_done(es);
}

void ReliableLink::release_acked(int host, SenderState& st,
                                 const AckBody& body) {
  while (!st.buffer.empty() && st.buffer.front().seq < body.cum_ack) {
    release_entry(host, st.buffer.front());
    st.buffer.pop_front();
  }
  // SACK-style release. The receiver scanned [cum_ack, horizon) and NACKed
  // every hole it found, so any retained seq in that range absent from the
  // list was received — release it even though the cumulative ack is stuck
  // behind a hole the sender has already abandoned. Without this, one
  // expired frame would pin every later frame until its own retry cap,
  // flagging recovered epochs as lost. A full NACK list means the scan was
  // truncated: only the range up to the last listed hole is known.
  std::uint32_t horizon = body.max_seen;
  if (body.nacks.size() >= kMaxNacksPerAck) horizon = body.nacks.back();
  for (auto it = st.buffer.begin();
       it != st.buffer.end() && it->seq < horizon;) {
    if (std::find(body.nacks.begin(), body.nacks.end(), it->seq) ==
        body.nacks.end()) {
      release_entry(host, *it);
      it = st.buffer.erase(it);
    } else {
      ++it;
    }
  }
}

void ReliableLink::settle_if_done(EpochState& es) {
  if (es.outstanding != 0 || es.counted_settled) return;
  es.counted_settled = true;
  epochs_settled_->inc();
  (es.expired == 0 ? epochs_recovered_ : epochs_unrecovered_)->inc();
}

void ReliableLink::tick(Nanos now) {
  if (!cfg_.enabled) return;
  for (auto& [host, st] : senders_) {
    for (auto it = st.buffer.begin(); it != st.buffer.end();) {
      if (it->next_retry > now) {
        ++it;
        continue;
      }
      if (it->attempts >= cfg_.max_retries) {
        expire_entry(host, *it, /*evicted=*/false);
        it = st.buffer.erase(it);
      } else {
        retransmit(host, st, *it, now, retx_timeout_);
        ++it;
      }
    }
  }
}

void ReliableLink::send_ack(int host, const ReceiverState& rs, Nanos now) {
  if (reverse_ == nullptr) return;
  AckBody body;
  body.cum_ack = rs.cum;
  body.max_seen = rs.max_seen_next;
  for (std::uint32_t s = rs.cum; s < rs.max_seen_next; ++s) {
    if (rs.above.count(s) != 0) continue;
    body.nacks.push_back(s);
    if (body.nacks.size() >= kMaxNacksPerAck) break;
  }
  acks_sent_->inc();
  // umon-sca: allow(SA009) this wrapper IS the sanctioned send site.
  (void)reverse_->send(host, /*epoch=*/0,
                       encode_ack_frame(static_cast<std::uint32_t>(host), body),
                       now);
}

void ReliableLink::on_forward_delivery(netsim::UploadChannel::Delivery&& d) {
  if (!cfg_.enabled) {
    if (deliver_) deliver_(d.host, d.epoch, std::move(d.payload));
    return;
  }
  auto frame = decode_frame(d.payload);
  if (!frame || frame->kind != FrameKind::kData) {
    frames_corrupt_->inc();
    return;  // the retransmit protocol recovers the data
  }
  ReceiverState& rs = receivers_[d.host];
  if (frame->frame_seq + 1 > rs.max_seen_next) {
    rs.max_seen_next = frame->frame_seq + 1;
  }
  // The sender's base_seq is its lowest retained seq: everything below was
  // acked or abandoned, so stop waiting for it (and stop NACKing holes the
  // sender will never fill — an abandoned frame must not pin cum forever).
  if (frame->base_seq > rs.cum) {
    rs.above.erase(rs.above.begin(), rs.above.lower_bound(frame->base_seq));
    rs.cum = frame->base_seq;
  }
  const bool dup = frame->frame_seq < rs.cum ||
                   rs.above.count(frame->frame_seq) != 0;
  if (lineage_ != nullptr) {
    lineage_->on_frame_delivered(uhost(d.host), frame->epoch, dup);
  }
  if (dup) {
    frames_duplicate_->inc();
  } else {
    rs.above.insert(frame->frame_seq);
    if (deliver_) deliver_(d.host, frame->epoch, std::move(frame->payload));
  }
  // Drain outside the dup branch: a base_seq jump above can land cum on
  // already-received (out-of-order) frames even when this frame is a dup.
  while (rs.above.count(rs.cum) != 0) {
    rs.above.erase(rs.cum);
    rs.cum += 1;
  }
  // Ack every arrival, duplicates included: a duplicate means the sender
  // never saw our earlier ack, so repeat it.
  send_ack(d.host, rs, d.deliver_at);
}

void ReliableLink::on_reverse_delivery(netsim::UploadChannel::Delivery&& d) {
  if (!cfg_.enabled) return;
  auto frame = decode_frame(d.payload);
  if (!frame || frame->kind != FrameKind::kAck) {
    frames_corrupt_->inc();
    return;
  }
  auto body = decode_ack_body(frame->payload);
  if (!body) {
    frames_corrupt_->inc();
    return;
  }
  acks_received_->inc();
  const int host = static_cast<int>(frame->host);
  SenderState& st = senders_[host];
  release_acked(host, st, *body);
  for (std::uint32_t seq : body->nacks) {
    auto it = std::find_if(st.buffer.begin(), st.buffer.end(),
                           [seq](const RetxEntry& e) { return e.seq == seq; });
    if (it == st.buffer.end()) continue;
    // Holdoff: a burst of acks repeats the same NACK list; resend once per
    // holdoff window, not once per ack.
    if (d.deliver_at - it->last_send < cfg_.nack_holdoff) continue;
    if (it->attempts >= cfg_.max_retries) {
      expire_entry(host, *it, /*evicted=*/false);
      st.buffer.erase(it);
    } else {
      retransmit(host, st, *it, d.deliver_at, retx_nack_);
    }
  }
}

EpochStatus ReliableLink::epoch_status(int host, std::uint32_t epoch) const {
  EpochStatus out;
  auto it = epochs_.find(epoch_key(host, epoch));
  if (it == epochs_.end()) return out;  // empty epoch: settled + recovered
  out.settled = it->second.outstanding == 0;
  out.recovered = it->second.expired == 0;
  out.retransmitted = it->second.retransmits > 0;
  return out;
}

bool ReliableLink::all_settled() const {
  for (const auto& [key, es] : epochs_) {
    if (es.outstanding != 0) return false;
  }
  return true;
}

Nanos ReliableLink::next_deadline() const {
  Nanos best = -1;
  for (const auto& [host, st] : senders_) {
    for (const RetxEntry& e : st.buffer) {
      if (best < 0 || e.next_retry < best) best = e.next_retry;
    }
  }
  return best;
}

void ReliableLink::expire_outstanding() {
  for (auto& [host, st] : senders_) {
    for (const RetxEntry& e : st.buffer) {
      expire_entry(host, e, /*evicted=*/false);
    }
    st.buffer.clear();
  }
}

ReliableStats ReliableLink::stats() const {
  ReliableStats out;
  for (const auto& s : reg_.snapshot()) {
    if (s.kind != telemetry::MetricRegistry::Kind::kCounter) continue;
    const std::uint64_t v = s.counter_value;
    if (s.name == "umon_resilience_frames_sent_total") {
      out.frames_sent = v;
    } else if (s.name == "umon_resilience_frames_retransmitted_total") {
      // One series per trigger: the total adds them.
      out.frames_retransmitted += v;
      const bool nack = !s.labels.empty() && s.labels[0].second == "nack";
      (nack ? out.frames_retransmitted_nack
            : out.frames_retransmitted_timeout) += v;
    } else if (s.name == "umon_resilience_frames_acked_total") {
      out.frames_acked = v;
    } else if (s.name == "umon_resilience_frames_expired_total") {
      out.frames_expired = v;
    } else if (s.name == "umon_resilience_frames_evicted_total") {
      out.frames_evicted = v;
    } else if (s.name == "umon_resilience_frames_corrupt_total") {
      out.frames_corrupt = v;
    } else if (s.name == "umon_resilience_frames_duplicate_total") {
      out.frames_duplicate = v;
    } else if (s.name == "umon_resilience_acks_sent_total") {
      out.acks_sent = v;
    } else if (s.name == "umon_resilience_acks_received_total") {
      out.acks_received = v;
    } else if (s.name == "umon_resilience_epochs_settled_total") {
      out.epochs_settled = v;
    } else if (s.name == "umon_resilience_epochs_recovered_total") {
      out.epochs_recovered = v;
    } else if (s.name == "umon_resilience_epochs_unrecovered_total") {
      out.epochs_unrecovered = v;
    }
  }
  return out;
}

}  // namespace umon::resilience
