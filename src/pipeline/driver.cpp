#include "pipeline/driver.hpp"

#include <set>

namespace umon::pipeline {
namespace {

/// Per host flush, at most this many reports ride one uplink payload.
constexpr std::size_t kMaxReportsPerPayload = 64;
/// finish() steps sim time by at most this many ticks to let the reliable
/// uplink settle; a frame that cannot land within its retry budget expires.
constexpr int kMaxSettleTicks = 256;

std::uint64_t epoch_key(int host, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
         epoch;
}

}  // namespace

std::unique_ptr<Pipeline> Pipeline::create(PipelineConfig cfg,
                                           std::string* error) {
  std::unique_ptr<Pipeline> p(new Pipeline(std::move(cfg)));
  std::string err = p->wire();
  if (err.empty()) return p;
  if (error != nullptr) *error = std::move(err);
  return nullptr;
}

Pipeline::~Pipeline() {
  // Workers may still flush into the analyzer, the store and the health
  // hooks; join them while every layer is alive.
  if (col_) col_->stop();
}

std::string Pipeline::wire() {
  const std::size_t hosts = static_cast<std::size_t>(cfg_.hosts);
  uplinks_.reserve(hosts);
  for (int h = 0; h < cfg_.hosts; ++h) {
    sketches_.push_back(
        std::make_unique<sketch::WaveSketchFull>(sketch::WaveSketchParams{}));
    uplinks_.emplace_back(h, kMaxReportsPerPayload);
  }
  last_flush_.assign(hosts, 0);
  if (cfg_.fault_plan) {
    injector_ = std::make_unique<resilience::FaultInjector>(
        std::move(*cfg_.fault_plan));
  }

  an_.set_gap_fill(cfg_.gap_fill);
  if (cfg_.lineage) {
    lineage_ = std::make_unique<obs::LineageTracker>();
    an_.set_lineage(lineage_.get());
  }
  // Attached before any ingestion, so every curve fragment the analyzer
  // absorbs also lands in a segment file.
  if (!cfg_.store.dir.empty()) {
    store_ = store::Store::open(cfg_.store, &store_recovery_);
    if (!store_) return "cannot open store directory " + cfg_.store.dir;
    an_.set_curve_sink(store_.get());
    if (lineage_) store_->set_lineage(lineage_.get());
  }
  collector::CollectorConfig ccfg;
  ccfg.shards = cfg_.collector_shards;
  col_ = std::make_unique<collector::Collector>(ccfg, an_);
  if (lineage_) col_->set_lineage(lineage_.get());

  netsim::UploadChannelConfig ucfg;
  ucfg.loss_rate = cfg_.report_loss;
  ucfg.jitter = cfg_.channel_jitter;
  ucfg.seed = cfg_.seed;
  channel_ = std::make_unique<netsim::UploadChannel>(ucfg, nullptr);
  if (cfg_.uplink_reliable) {
    // Acks ride their own channel instance with the same loss model — a
    // reliable protocol over a reliable reverse path would be cheating.
    netsim::UploadChannelConfig rcfg = ucfg;
    rcfg.seed = cfg_.seed ^ 0xAC4BAC4ULL;
    reverse_ = std::make_unique<netsim::UploadChannel>(rcfg, nullptr);
  }
  if (injector_) {
    // One injector serves both directions: single-threaded send order
    // keeps the shared RNG stream reproducible.
    auto hook = [inj = injector_.get()](
                    int host, Nanos now,
                    std::vector<std::uint8_t>& payload) -> netsim::SendFault {
      const resilience::FaultAction a = inj->on_send(host, now, payload);
      return netsim::SendFault{a.drop, a.duplicates, a.extra_delay};
    };
    channel_->set_fault_hook(hook);
    if (reverse_) reverse_->set_fault_hook(hook);
  }

  // Every payload goes through the ReliableLink; in passthrough mode it
  // forwards verbatim over the lossy channel.
  resilience::ReliableConfig lcfg;
  lcfg.enabled = cfg_.uplink_reliable;
  lcfg.retx_buffer_frames = cfg_.uplink_retx_buffer;
  link_ = std::make_unique<resilience::ReliableLink>(lcfg, *channel_,
                                                     reverse_.get());
  if (lineage_) link_->set_lineage(lineage_.get());
  link_->set_deliver_hook([c = col_.get()](
                              int host, std::uint32_t epoch,
                              std::vector<std::uint8_t>&& payload) {
    // Malformed payloads surface in the collector stats.
    (void)c->submit_report_payload(host, epoch, std::move(payload));
  });
  channel_->set_sink([l = link_.get()](netsim::UploadChannel::Delivery&& d) {
    l->on_forward_delivery(std::move(d));
  });
  if (reverse_) {
    reverse_->set_sink([l = link_.get()](netsim::UploadChannel::Delivery&& d) {
      l->on_reverse_delivery(std::move(d));
    });
  }

  if (cfg_.health) {
    health::HealthConfig hcfg;
    hcfg.interval = cfg_.tick;
    hcfg.alarms = cfg_.health_alarms;
    mon_ = std::make_unique<health::HealthMonitor>(hcfg);
    if (!mon_->alarm_parse_error().empty()) {
      return "bad health alarm rules: " + mon_->alarm_parse_error();
    }
    mon_->add_registry(&telemetry::MetricRegistry::global());
    mon_->add_registry(&col_->telemetry_registry());
    mon_->add_registry(&link_->telemetry_registry());
    if (store_) mon_->add_registry(&store_->telemetry_registry());
    mon_->set_analyzer(&an_);
    col_->set_decode_event_hook([m = mon_.get()](Nanos t) {
      m->watermarks().note(health::Stage::kCollectorDecode, t);
    });
    col_->set_curve_event_hook([m = mon_.get()](Nanos t) {
      m->watermarks().note(health::Stage::kAnalyzerCurve, t);
    });
  }

  // Sequence-gap losses found at seal time flag the epoch's windows, so an
  // unrecovered (or unprotected) loss can never read back as a genuinely
  // idle window.
  col_->set_epoch_loss_hook([this](int host, std::uint32_t epoch,
                                   std::uint64_t lost) {
    if (lost == 0) return;
    auto it = epoch_windows_.find(epoch_key(host, epoch));
    if (it == epoch_windows_.end()) return;
    marks_.push_back({it->second.first, it->second.second,
                      analyzer::WindowConfidence::kLost});
    if (lineage_) {
      lineage_->on_verdict(static_cast<std::uint32_t>(host), epoch,
                           obs::Verdict::kLost);
    }
  });
  col_->start();
  if (mon_) mon_->prime(0);
  return {};
}

void Pipeline::advance(Nanos t) {
  channel_->advance_to(t);
  if (reverse_) reverse_->advance_to(t);
  link_->tick(t);
}

// Window flags wait for the next drain. A shard worker may still be
// flushing an earlier-sealed epoch into the analyzer, and the store stamps
// each record with the flags present when it lands, so flagging from this
// thread at once would race that flush and let thread timing reach the
// segment bytes.
void Pipeline::apply_marks() {
  for (const PendingMark& m : marks_) an_.mark_windows(m.from, m.to, m.conf);
  marks_.clear();
}

// Seal every awaiting epoch whose uplink delivery has settled (always true
// in passthrough mode: its payloads either landed within the previous tick
// or are gone for good). Seals stay in flush order per host — the
// collector's gap accounting chains epoch_start_seq from one seal to the
// next.
void Pipeline::seal_settled(bool force) {
  std::set<int> blocked;
  auto it = awaiting_.begin();
  while (it != awaiting_.end()) {
    const resilience::EpochStatus st = link_->epoch_status(it->host, it->epoch);
    if ((cfg_.uplink_reliable && !st.settled && !force) ||
        blocked.count(it->host) != 0) {
      blocked.insert(it->host);
      ++it;
      continue;
    }
    // The protocol's word on the epoch, mirrored into the audit.
    // Sequence-gap losses found later at seal time upgrade it via the
    // epoch-loss hook; the tracker keeps the worst.
    obs::Verdict v = obs::Verdict::kCovered;
    if (cfg_.uplink_reliable && !st.recovered) {
      marks_.push_back({it->wfrom, it->wto, analyzer::WindowConfidence::kLost});
      v = obs::Verdict::kLost;
    } else if (cfg_.uplink_reliable && st.retransmitted) {
      marks_.push_back(
          {it->wfrom, it->wto, analyzer::WindowConfidence::kRetransmitted});
      v = obs::Verdict::kRetransmitted;
    }
    if (lineage_) {
      lineage_->on_verdict(static_cast<std::uint32_t>(it->host), it->epoch, v);
    }
    col_->seal_epoch(it->host, it->epoch, it->end_seq);
    // Settlement is the resilience watermark: every frame of this epoch
    // was delivered or explicitly declared lost.
    if (mon_) mon_->watermarks().note(health::Stage::kResilience, it->end_time);
    it = awaiting_.erase(it);
  }
}

// Durability barrier: fsync everything the analyzer has absorbed so far,
// then let the compactor age sealed segments. The store-seal watermark
// advances to the analyzer-curve frontier — the store just made durable
// exactly what the analyzer had ingested.
void Pipeline::checkpoint() {
  if (!store_) return;
  (void)store_->seal_epoch();
  store_->maintain();
  ++checkpoints_;
  if (cfg_.scrub_interval > 0 &&
      checkpoints_ % static_cast<std::uint64_t>(cfg_.scrub_interval) == 0) {
    scrub();
  }
  if (mon_) {
    const Nanos hi = mon_->watermarks().high(health::Stage::kAnalyzerCurve);
    if (hi != health::Watermarks::kUnset) {
      mon_->watermarks().note(health::Stage::kStoreSeal, hi);
    }
  }
}

void Pipeline::scrub() {
  if (!store_) return;
  const store::ScrubReport r = store_->scrub();
  if (cfg_.on_scrub) cfg_.on_scrub(r);
}

void Pipeline::tick(Nanos t) {
  if (injector_) {
    for (const auto& ev : injector_->take_due_shard_events(t)) {
      if (ev.restart) {
        col_->restart_shard(ev.shard);
      } else {
        col_->crash_shard(ev.shard);
      }
    }
  }
  advance(t);
  // Quiesce the shards before sealing: seal-time accounting (sequence
  // gaps, crash damage) must see every batch the workers were handed.
  col_->drain();
  apply_marks();
  seal_settled(/*force=*/false);
  for (int h = 0; h < cfg_.hosts; ++h) {
    if (injector_ != nullptr && injector_->host_stalled(h, t)) {
      continue;  // the sketch keeps accumulating; next flush covers it
    }
    const std::size_t hi = static_cast<std::size_t>(h);
    auto up = uplinks_[hi].flush_epoch(*sketches_[hi]);
    if (mon_) mon_->watermarks().note(health::Stage::kSketchSeal, t);
    const PendingSeal ps{h, up.epoch, up.end_seq,
                         window_of(last_flush_[hi]), window_of(t), t};
    epoch_windows_[epoch_key(h, up.epoch)] = {ps.wfrom, ps.wto};
    if (lineage_) {
      lineage_->on_uplink_flush(
          static_cast<std::uint32_t>(h), up.epoch,
          static_cast<std::uint32_t>(up.reports),
          static_cast<std::uint32_t>(up.payloads.size()),
          static_cast<std::uint64_t>(t), ps.wfrom, ps.wto);
    }
    last_flush_[hi] = t;
    for (auto& p : up.payloads) link_->send(h, up.epoch, std::move(p.bytes), t);
    awaiting_.push_back(ps);
  }
  col_->drain();
  apply_marks();
  checkpoint();
  if (mon_) mon_->tick(t);
}

Nanos Pipeline::run(Nanos horizon, const std::function<void(Nanos)>& source,
                    const std::function<void(Nanos)>& after_tick) {
  for (Nanos t = cfg_.tick;; t += cfg_.tick) {
    if (t > horizon) t = horizon;
    source(t);
    tick(t);
    if (after_tick) after_tick(t);
    if (t >= horizon) return t;
  }
}

void Pipeline::finish(Nanos t, std::vector<uevent::MirroredPacket> mirrored) {
  const Nanos closing = t + cfg_.tick;
  if (cfg_.uplink_reliable) {
    // Settlement tail: keep stepping sim time so in-flight frames, acks
    // and retransmits can land.
    int rounds = 0;
    while (!link_->all_settled() && rounds++ < kMaxSettleTicks) {
      t += cfg_.tick;
      advance(t);
    }
    link_->expire_outstanding();
  }
  channel_->flush();
  if (reverse_) reverse_->flush();
  col_->drain();
  apply_marks();
  seal_settled(/*force=*/true);
  col_->submit_mirror_batch(std::move(mirrored));
  col_->stop();
  apply_marks();
  // The tail seals above flushed the last epochs into the analyzer (and
  // its store sink); one final checkpoint makes them durable.
  checkpoint();
  // Closing sample: the tail seals are where sequence-gap losses are
  // accounted, so this tick lets a loss alarm fire even when the loss only
  // shows at shutdown.
  if (mon_) mon_->tick(closing);
}

}  // namespace umon::pipeline
