#include "pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/tracing.hpp"

namespace umon::pbench {
namespace {

using telemetry::ScopedSpan;

std::uint64_t epoch_key(int host, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
         epoch;
}

}  // namespace

Pipeline::Pipeline(const PipelineConfig& cfg) {
  if (cfg.sketches) {
    for (int h = 0; h < cfg.hosts; ++h) {
      sketches_.push_back(std::make_unique<sketch::WaveSketchFull>(cfg.sketch));
    }
  }
  uplinks_.reserve(static_cast<std::size_t>(cfg.hosts));
  for (int h = 0; h < cfg.hosts; ++h) {
    uplinks_.emplace_back(h, /*max_reports_per_payload=*/64);
  }
  durable_epoch_.assign(static_cast<std::size_t>(cfg.hosts), -1);

  store::StoreConfig scfg;
  scfg.dir = cfg.store_dir;
  store_ = store::Store::open(scfg, &rinfo_);
  if (!store_) throw std::runtime_error("cannot open store " + cfg.store_dir);
  an_.set_curve_sink(store_.get());

  collector::CollectorConfig ccfg;
  ccfg.shards = cfg.shards;
  col_ = std::make_unique<collector::Collector>(ccfg, an_);
  // Both hooks below run on the replay thread (seal_epoch, drain) except
  // the seal hook, which the flushing shard worker calls.
  col_->set_epoch_loss_hook(
      [this](int host, std::uint32_t epoch, std::uint64_t lost) {
        if (lost > 0) mark_lost(host, epoch);
      });
  col_->set_epoch_seal_hook([this](int host, std::uint32_t epoch) {
    std::lock_guard lock(flushed_mutex_);
    flushed_.push_back(epoch_key(host, epoch));
  });
  col_->start();

  netsim::UploadChannelConfig ucfg;
  ucfg.jitter = 20 * kMicro;
  ucfg.seed = cfg.seed;
  fwd_ = std::make_unique<netsim::UploadChannel>(ucfg, nullptr);
  netsim::UploadChannelConfig rcfg = ucfg;
  rcfg.seed = cfg.seed ^ 0xAC4BAC4ULL;
  rev_ = std::make_unique<netsim::UploadChannel>(rcfg, nullptr);
  if (cfg.chaos != nullptr) {
    // One injector for both directions, as umon_sim does: the replay
    // thread's send order keeps its random stream reproducible.
    injector_ = std::make_unique<resilience::FaultInjector>(*cfg.chaos);
    auto hook = [inj = injector_.get()](int host, Nanos now,
                                        std::vector<std::uint8_t>& payload) {
      const resilience::FaultAction a = inj->on_send(host, now, payload);
      return netsim::SendFault{a.drop, a.duplicates, a.extra_delay};
    };
    fwd_->set_fault_hook(hook);
    rev_->set_fault_hook(hook);
  }
  link_ = std::make_unique<resilience::ReliableLink>(
      resilience::ReliableConfig{}, *fwd_, rev_.get());
  link_->set_deliver_hook([this](int host, std::uint32_t epoch,
                                 std::vector<std::uint8_t>&& payload) {
    ScopedSpan span("collector.submit", kSpanCategory);
    ++counts_.submitted;
    // Malformed payloads are counted by the collector and gated at exit.
    (void)col_->submit_report_payload(host, epoch, std::move(payload));
  });
  fwd_->set_sink([l = link_.get()](netsim::UploadChannel::Delivery&& d) {
    l->on_forward_delivery(std::move(d));
  });
  rev_->set_sink([l = link_.get()](netsim::UploadChannel::Delivery&& d) {
    l->on_reverse_delivery(std::move(d));
  });

  server_ = std::make_unique<serve::Server>(serve::ServeConfig{});
  serve::Services svc;
  svc.registries = {&col_->telemetry_registry(), &link_->telemetry_registry(),
                    &store_->telemetry_registry()};
  svc.store = store_.get();
  svc.store_dir = cfg.store_dir;
  svc.store_rinfo = rinfo_;
  endpoints_ = std::make_unique<serve::Endpoints>(*server_, svc);
  if (!server_->start()) throw std::runtime_error("cannot start the server");
}

Pipeline::~Pipeline() { stop(); }

void Pipeline::stop() {
  if (server_) server_->stop();
  if (col_) col_->stop();
}

void Pipeline::tick(Nanos t, const TickInput& in) {
  if (injector_) {
    ScopedSpan span("collector.fault", kSpanCategory);
    for (const auto& ev : injector_->take_due_shard_events(t)) {
      if (ev.restart) {
        col_->restart_shard(ev.shard);
      } else {
        col_->crash_shard(ev.shard);
      }
    }
  }
  if (!in.packets.empty()) {
    ScopedSpan span("sketch.update", kSpanCategory);
    for (const Packet& p : in.packets) {
      sketches_[p.host]->update(p.flow, p.ts + in.ts_shift,
                                static_cast<Count>(p.size));
    }
  }
  deliver_and_retransmit(t);
  if (sample_queue_depth_) {
    ScopedSpan span("bench.sample", kSpanCategory);
    std::int64_t depth = 0;
    for (const auto& s : col_->telemetry_registry().snapshot()) {
      if (s.name == "umon_collector_queue_depth_batches") {
        depth += s.gauge_value;
      }
    }
    counts_.queue_depth_max = std::max(counts_.queue_depth_max, depth);
  }
  {
    ScopedSpan span("collector.drain", kSpanCategory);
    (void)col_->drain();
  }
  {
    ScopedSpan span("collector.seal", kSpanCategory);
    seal_settled(/*force=*/false);
  }

  const std::size_t hosts = uplinks_.size();
  std::vector<std::vector<sketch::TaggedReport>> batches(hosts);
  if (in.reports != nullptr) {
    // Report replay: a copy of the batch the host's sketch flushed in
    // set-up, moved to this pass's windows. Bench work, not a layer's.
    ScopedSpan span("replay.copy", kSpanCategory);
    for (std::size_t h = 0; h < hosts; ++h) {
      batches[h] = (*in.reports)[h];
      for (auto& r : batches[h]) r.report.w0 += in.w_shift;
    }
  } else {
    ScopedSpan span("sketch.flush", kSpanCategory);
    for (std::size_t h = 0; h < hosts; ++h) {
      batches[h] = sketches_[h]->flush_reports();
    }
  }

  epochs_.push_back(EpochRec{window_of(last_flush_), window_of(t), now()});
  last_flush_ = t;
  std::vector<collector::HostUplink::EpochUpload> ups(hosts);
  {
    ScopedSpan span("uplink.encode", kSpanCategory);
    for (std::size_t h = 0; h < hosts; ++h) {
      counts_.reports += batches[h].size();
      ups[h] = uplinks_[h].encode_epoch(std::move(batches[h]));
    }
  }
  {
    ScopedSpan span("resilience.send", kSpanCategory);
    for (std::size_t h = 0; h < hosts; ++h) {
      const int host = static_cast<int>(h);
      for (auto& p : ups[h].payloads) {
        ++counts_.payloads;
        counts_.payload_bytes += p.bytes.size();
        link_->send(host, ups[h].epoch, std::move(p.bytes), t);
      }
      awaiting_.push_back(Awaiting{host, ups[h].epoch, ups[h].end_seq});
    }
  }
  counts_.host_epochs += hosts;
  {
    ScopedSpan span("collector.drain", kSpanCategory);
    (void)col_->drain();
  }
  apply_marks();
  seal_store();
  ++counts_.ticks;
}

void Pipeline::finish(Nanos t, Nanos step) {
  // Settlement tail, as in umon_sim: step sim time until every frame is
  // acked or expired (bounded by the retry horizon), then seal the rest.
  for (int rounds = 0; !link_->all_settled() && rounds < kMaxSettleTicks;
       ++rounds) {
    t += step;
    deliver_and_retransmit(t);
  }
  {
    ScopedSpan span("resilience.receive", kSpanCategory);
    link_->expire_outstanding();
    fwd_->flush();
    rev_->flush();
  }
  {
    ScopedSpan span("collector.drain", kSpanCategory);
    (void)col_->drain();
  }
  {
    ScopedSpan span("collector.seal", kSpanCategory);
    seal_settled(/*force=*/true);
  }
  {
    ScopedSpan span("collector.drain", kSpanCategory);
    (void)col_->drain();
  }
  apply_marks();
  seal_store();
}

std::uint64_t Pipeline::now() const {
  return telemetry::monotonic_ns() - excluded_;
}

void Pipeline::deliver_and_retransmit(Nanos t) {
  ScopedSpan span("resilience.receive", kSpanCategory);
  fwd_->advance_to(t);
  rev_->advance_to(t);
  link_->tick(t);
}

void Pipeline::seal_settled(bool force) {
  // Seal in flush order per host: the collector's gap accounting chains
  // each seal's start sequence from the previous one.
  std::vector<bool> blocked(uplinks_.size(), false);
  std::size_t keep = 0;
  for (std::size_t i = 0; i < awaiting_.size(); ++i) {
    const Awaiting a = awaiting_[i];
    const auto host = static_cast<std::size_t>(a.host);
    const resilience::EpochStatus st = link_->epoch_status(a.host, a.epoch);
    if ((!st.settled && !force) || blocked[host]) {
      blocked[host] = true;
      awaiting_[keep++] = a;
      continue;
    }
    if (!st.recovered) {
      mark_lost(a.host, a.epoch);
    } else if (st.retransmitted) {
      marks_.push_back(Mark{epochs_[a.epoch].wfrom, epochs_[a.epoch].wto,
                            analyzer::WindowConfidence::kRetransmitted});
    }
    col_->seal_epoch(a.host, a.epoch, a.end_seq);
  }
  awaiting_.resize(keep);
}

void Pipeline::mark_lost(int host, std::uint32_t epoch) {
  lost_.insert(epoch_key(host, epoch));
  marks_.push_back(Mark{epochs_[epoch].wfrom, epochs_[epoch].wto,
                        analyzer::WindowConfidence::kLost});
}

void Pipeline::apply_marks() {
  // Runs right after a drain, so no shard worker is inside the analyzer.
  ScopedSpan span("analyzer.mark", kSpanCategory);
  for (const Mark& m : marks_) an_.mark_windows(m.from, m.to, m.conf);
  marks_.clear();
}

void Pipeline::seal_store() {
  std::uint64_t sealed_ns = 0;
  {
    ScopedSpan span("store.seal", kSpanCategory);
    if (!store_->seal_epoch()) ++counts_.seal_failures;
    sealed_ns = now();
  }
  {
    ScopedSpan span("store.maintain", kSpanCategory);
    store_->maintain();
  }
  ++counts_.store_seals;

  ScopedSpan span("bench.account", kSpanCategory);
  std::vector<std::uint64_t> flushed;
  {
    std::lock_guard lock(flushed_mutex_);
    flushed.swap(flushed_);
  }
  // Everything the collector flushed before this seal is now durable and
  // queryable: that closes each of those epochs' freshness interval.
  for (const std::uint64_t key : flushed) {
    const auto host = static_cast<std::size_t>(key >> 32);
    const auto epoch = static_cast<std::uint32_t>(key);
    freshness_ms_.push_back(
        static_cast<double>(sealed_ns - epochs_[epoch].sent_ns) / 1e6);
    durable_epoch_[host] =
        std::max(durable_epoch_[host], static_cast<std::int64_t>(epoch));
  }
  const std::int64_t frontier =
      *std::min_element(durable_epoch_.begin(), durable_epoch_.end());
  if (frontier >= 0) {
    durable_window_ = epochs_[static_cast<std::size_t>(frontier)].wto;
  }
}

}  // namespace umon::pbench
