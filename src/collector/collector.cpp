#include "collector/collector.hpp"

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <map>
#include <span>

#include "obs/lineage.hpp"
#include "obs/prof.hpp"
#include "sketch/serialize.hpp"
#include "telemetry/log.hpp"
#include "telemetry/tracing.hpp"

namespace umon::collector {
namespace {

/// (host, epoch) packed into one map key.
std::uint64_t epoch_key(int host, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(host)) << 32) |
         epoch;
}

/// Shard routing for light (grid-addressed) reports: a flow always maps to
/// the same (host, row, col) buckets, so this keeps its fragments together
/// even without a flow tag.
std::uint64_t mix_route(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 29;
  return x;
}

}  // namespace

namespace {

/// Rendezvous for Collector::drain(): each shard worker acks once it pops
/// the barrier message, and because queues are FIFO that ack proves every
/// earlier message on that shard — including seal processing and any sink
/// flush it triggered — has completed.
struct DrainBarrier {
  std::mutex mu;
  std::condition_variable cv;
  int acks = 0;
  int live_acks = 0;  ///< acks from shards that were not crashed

  void ack(bool live) {
    {
      std::lock_guard lock(mu);
      acks += 1;
      if (live) live_acks += 1;
    }
    cv.notify_all();
  }
  int wait_for(int n) {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return acks >= n; });
    return live_acks;
  }
};

}  // namespace

struct Collector::ShardMsg {
  enum class Kind { kReports, kMirror, kSeal, kBarrier, kCrash, kRestart,
                    kStop };
  Kind kind = Kind::kStop;
  int host = -1;
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> bytes;  ///< kReports: concatenated report frames
  std::uint32_t report_count = 0;
  std::vector<uevent::MirroredPacket> mirror;
  std::shared_ptr<DrainBarrier> barrier;  ///< kBarrier only
};

struct Collector::Shard {
  struct StagedEpoch {
    std::vector<analyzer::Analyzer::SparseFragment> fragments;
    std::size_t wire_bytes = 0;
    Nanos max_event_ns = -1;  ///< largest window-end event time decoded
  };

  Shard(std::size_t capacity, OverflowPolicy policy)
      : queue(capacity, policy) {}

  BatchQueue<ShardMsg> queue;
  /// Touched only by this shard's worker thread (and by stop() after join).
  std::unordered_map<std::uint64_t, StagedEpoch> staging;
  /// Crash state. Only the worker thread writes it (kCrash/kRestart are
  /// ordinary queue messages), so no synchronization is needed.
  bool down = false;
};

struct Collector::HostSeqState {
  std::uint32_t epoch_start_seq = 0;  ///< first seq of the open epoch
  /// Arrival accounting, keyed by the epoch a payload was submitted under.
  /// A reliable uplink defers an epoch's seal until its frames settle, so
  /// later epochs' reports can land first — epoch-oblivious counting would
  /// zero them at the earlier seal and then read them back as gaps.
  struct EpochRecv {
    std::uint64_t count = 0;         ///< reports arrived for this epoch
    std::uint32_t max_seq_next = 0;  ///< highest (seq + 1) seen in it
  };
  std::map<std::uint32_t, EpochRecv> received_by_epoch;
};

struct Collector::PendingEpoch {
  using Fragments = std::vector<analyzer::Analyzer::SparseFragment>;

  int host = -1;
  std::uint32_t epoch = 0;
  /// Staged fragments per shard index. They are concatenated in shard order
  /// at flush, so the order of a (host, epoch)'s records never depends on
  /// which shard acked the seal first.
  std::vector<Fragments> by_shard;
  std::size_t wire_bytes = 0;
  Nanos max_event_ns = -1;  ///< max across the contributing shards
  int acks = 0;  ///< shards that have drained their share

  void stage(std::uint64_t key, int shard, std::size_t shards,
             Shard::StagedEpoch&& staged) {
    host = static_cast<int>(key >> 32);
    epoch = static_cast<std::uint32_t>(key);
    by_shard.resize(shards);
    Fragments& slot = by_shard[static_cast<std::size_t>(shard)];
    if (slot.empty()) {
      slot = std::move(staged.fragments);
    } else {  // stop() folding a shard's post-seal staging into its ack
      std::move(staged.fragments.begin(), staged.fragments.end(),
                std::back_inserter(slot));
    }
    wire_bytes += staged.wire_bytes;
    if (staged.max_event_ns > max_event_ns) max_event_ns = staged.max_event_ns;
  }

  Fragments merged() && {
    std::size_t n = 0;
    for (const Fragments& f : by_shard) n += f.size();
    Fragments out;
    out.reserve(n);
    for (Fragments& f : by_shard) {
      std::move(f.begin(), f.end(), std::back_inserter(out));
    }
    return out;
  }
};

/// Every counter lives in the collector's private registry so stats() can
/// materialize the whole CollectorStats view from one snapshot pass and the
/// exporters can dump the same instruments verbatim.
struct Collector::Instruments {
  explicit Instruments(int shards) {
    payloads_submitted = reg.counter(
        "umon_collector_payloads_submitted_total", {},
        "Upload payloads offered to the front door");
    payloads_malformed = reg.counter(
        "umon_collector_payloads_malformed_total", {},
        "Payloads rejected by the framing scan");
    batches_enqueued = reg.counter(
        "umon_collector_batches_enqueued_total", {},
        "Routed batches admitted to shard queues");
    batches_shed = reg.counter("umon_collector_batches_shed_total", {},
                               "Batches shed by the overflow policy");
    batches_rejected = reg.counter(
        "umon_collector_batches_rejected_total", {},
        "Shed breakdown: incoming batches refused (drop-newest)");
    batches_evicted = reg.counter(
        "umon_collector_batches_evicted_total", {},
        "Shed breakdown: resident batches evicted (drop-oldest)");
    reports_scanned = reg.counter("umon_collector_reports_scanned_total", {},
                                  "Report frames seen by the framing scan");
    reports_decoded = reg.counter("umon_collector_reports_decoded_total", {},
                                  "Reports fully decoded by shard workers");
    reports_malformed = reg.counter(
        "umon_collector_reports_malformed_total", {},
        "Reports that failed shard-side decode");
    reports_shed = reg.counter("umon_collector_reports_shed_total", {},
                               "Reports inside shed batches");
    reports_lost = reg.counter("umon_collector_reports_lost_total", {},
                               "Reports lost upstream (sequence gaps)");
    mirror_packets = reg.counter("umon_collector_mirror_packets_total", {},
                                 "Mirrored event packets delivered");
    epochs_flushed = reg.counter("umon_collector_epochs_flushed_total", {},
                                 "Sealed (host, epoch) batches flushed");
    fragments_ingested = reg.counter(
        "umon_collector_fragments_ingested_total", {},
        "Sparse curve fragments handed to the analyzer");
    batches_crashed = reg.counter(
        "umon_collector_batches_crashed_total", {},
        "Data batches discarded by a crashed shard");
    reports_crashed = reg.counter(
        "umon_collector_reports_crashed_total", {},
        "Reports inside batches discarded by a crashed shard");
    fragments_crashed = reg.counter(
        "umon_collector_fragments_crashed_total", {},
        "Staged curve fragments lost when a shard crashed");
    shard_crashes = reg.counter("umon_collector_shard_crashes_total", {},
                                "Shard crash events injected");
    shard_restarts = reg.counter("umon_collector_shard_restarts_total", {},
                                 "Shard restart events injected");
    decode_latency_us = reg.histogram(
        "umon_collector_decode_latency_us",
        telemetry::Histogram::latency_us_bounds(), {},
        "Shard-side batch decode + reconstruct latency");
    flush_latency_us = reg.histogram(
        "umon_collector_epoch_flush_latency_us",
        telemetry::Histogram::latency_us_bounds(), {},
        "Sealed-epoch flush into the analyzer");
    queue_depth.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      queue_depth.push_back(
          reg.gauge("umon_collector_queue_depth_batches",
                    {{"shard", std::to_string(s)}},
                    "Batches resident in one shard queue"));
    }
  }

  telemetry::MetricRegistry reg;
  telemetry::Counter* payloads_submitted;
  telemetry::Counter* payloads_malformed;
  telemetry::Counter* batches_enqueued;
  telemetry::Counter* batches_shed;
  telemetry::Counter* batches_rejected;
  telemetry::Counter* batches_evicted;
  telemetry::Counter* reports_scanned;
  telemetry::Counter* reports_decoded;
  telemetry::Counter* reports_malformed;
  telemetry::Counter* reports_shed;
  telemetry::Counter* reports_lost;
  telemetry::Counter* mirror_packets;
  telemetry::Counter* epochs_flushed;
  telemetry::Counter* fragments_ingested;
  telemetry::Counter* batches_crashed;
  telemetry::Counter* reports_crashed;
  telemetry::Counter* fragments_crashed;
  telemetry::Counter* shard_crashes;
  telemetry::Counter* shard_restarts;
  telemetry::Histogram* decode_latency_us;
  telemetry::Histogram* flush_latency_us;
  std::vector<telemetry::Gauge*> queue_depth;
};

Collector::Collector(const CollectorConfig& cfg, analyzer::Analyzer& sink)
    : cfg_(cfg), sink_(sink) {
  if (cfg_.shards < 1) cfg_.shards = 1;
  ins_ = std::make_unique<Instruments>(cfg_.shards);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(
        std::make_unique<Shard>(cfg_.queue_capacity, cfg_.overflow));
  }
}

Collector::~Collector() { stop(); }

const telemetry::MetricRegistry& Collector::telemetry_registry() const {
  return ins_->reg;
}

void Collector::start() {
  if (running_) return;
  running_ = true;
  workers_.reserve(shards_.size());
  for (int s = 0; s < cfg_.shards; ++s) {
    workers_.emplace_back([this, s] { worker(s); });
  }
}

void Collector::stop() {
  if (!running_) return;
  for (auto& sh : shards_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kStop;
    sh->queue.push_control(std::move(msg));
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
  running_ = false;

  // Flush whatever never got sealed (end of run): merge the per-shard
  // staging remainders and deliver them. Workers are joined, so this is
  // plain single-threaded code.
  // Ordered by (host, epoch) so the end-of-run flush order is fixed too.
  std::map<std::uint64_t, PendingEpoch> leftovers;
  {
    std::lock_guard el(epoch_mutex_);
    for (auto& [key, p] : pending_) leftovers.emplace(key, std::move(p));
    pending_.clear();
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (auto& [key, staged] : shards_[s]->staging) {
      leftovers[key].stage(key, static_cast<int>(s), shards_.size(),
                           std::move(staged));
    }
    shards_[s]->staging.clear();
  }
  for (auto& [key, p] : leftovers) flush_epoch_to_sink(std::move(p));

  // Workers are joined, so every crash-damage record is in. Sweep whatever
  // never settled at a seal barrier — epochs whose every batch crashed
  // leave no staged data and may never have been sealed — then dispatch
  // the lot so no loss escapes the hook.
  {
    std::lock_guard lock(crash_mutex_);
    for (const auto& [key, lost] : crash_damage_) {
      settled_damage_.push_back({static_cast<int>(key >> 32),
                                 static_cast<std::uint32_t>(key), lost});
    }
    crash_damage_.clear();
  }
  fire_settled_damage();
}

int Collector::drain() {
  if (!running_) return 0;
  auto barrier = std::make_shared<DrainBarrier>();
  {
    // Take the front mutex so the barrier lands after any in-flight submit
    // on every queue; control push bypasses the overflow policy.
    std::lock_guard lock(front_mutex_);
    for (auto& sh : shards_) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kBarrier;
      msg.barrier = barrier;
      sh->queue.push_control(std::move(msg));
    }
  }
  // Every shard acks, crashed or not: a crashed worker keeps consuming its
  // queue (discarding data), so the barrier still proves FIFO completion of
  // everything enqueued before it — including batches that were in flight
  // when the crash message landed. The live count tells the caller how many
  // shards actually *processed* rather than shed their backlog.
  const int live = barrier->wait_for(cfg_.shards);
  // Crash damage settled at seal barriers since the last drain is now
  // final; dispatch it on this (caller) thread so the hook never races the
  // shard workers.
  fire_settled_damage();
  return live;
}

void Collector::crash_shard(int shard) {
  if (shard < 0 || shard >= cfg_.shards || !running_) return;
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kCrash;
  shards_[static_cast<std::size_t>(shard)]->queue.push_control(std::move(msg));
}

void Collector::restart_shard(int shard) {
  if (shard < 0 || shard >= cfg_.shards || !running_) return;
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kRestart;
  shards_[static_cast<std::size_t>(shard)]->queue.push_control(std::move(msg));
}

bool Collector::submit_report_payload(int host, std::uint32_t epoch,
                                      std::vector<std::uint8_t> payload) {
  // The framing scan below is pure local computation (plus atomic telemetry
  // counters); run it before taking front_mutex_ so a large or malformed
  // payload never stalls other submitters or the seal drain barrier.
  ins_->payloads_submitted->inc();

  const std::span<const std::uint8_t> in(payload);
  std::size_t offset = 0;
  std::uint32_t count = 0;
  if (in.size() < sizeof(count)) {
    ins_->payloads_malformed->inc();
    UMON_LOG(kWarn, "collector", "payload shorter than its header",
             {"host", std::to_string(host)},
             {"bytes", std::to_string(in.size())});
    return false;
  }
  std::memcpy(&count, in.data(), sizeof(count));
  offset += sizeof(count);

  // Scan the whole payload before committing anything: a payload that fails
  // the framing scan is discarded atomically, not half-routed.
  const auto n_shards = static_cast<std::size_t>(cfg_.shards);
  std::vector<std::vector<std::uint8_t>> route_bytes(n_shards);
  std::vector<std::uint32_t> route_count(n_shards, 0);
  std::uint32_t max_seq_next = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto frame = sketch::scan_report(in, offset);
    if (!frame) {
      ins_->payloads_malformed->inc();
      UMON_LOG(kWarn, "collector", "payload failed framing scan",
               {"host", std::to_string(host)},
               {"frame", std::to_string(i)});
      return false;
    }
    std::size_t shard;
    if (frame->has_flow) {
      shard = std::hash<FlowKey>{}(frame->flow) % n_shards;
    } else {
      shard = mix_route((static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(host))
                         << 40) ^
                        (static_cast<std::uint64_t>(frame->row) << 32) ^
                        frame->col) %
              n_shards;
    }
    route_bytes[shard].insert(route_bytes[shard].end(),
                              in.begin() + frame->begin,
                              in.begin() + frame->end);
    route_count[shard] += 1;
    if (frame->seq + 1 > max_seq_next) max_seq_next = frame->seq + 1;
  }
  if (offset != in.size()) {  // trailing garbage
    ins_->payloads_malformed->inc();
    UMON_LOG(kWarn, "collector", "payload has trailing garbage",
             {"host", std::to_string(host)});
    return false;
  }

  ins_->reports_scanned->inc(count);

  // State commit + routing: everything past this point must stay ordered
  // with seal_epoch's drain barrier, which serializes on the same mutex.
  std::lock_guard lock(front_mutex_);
  bytes_by_host_[host] += payload.size();
  HostSeqState& st = seq_state_[host];
  HostSeqState::EpochRecv& er = st.received_by_epoch[epoch];
  er.count += count;
  if (max_seq_next > er.max_seq_next) er.max_seq_next = max_seq_next;

  for (std::size_t s = 0; s < n_shards; ++s) {
    if (route_bytes[s].empty()) continue;
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kReports;
    msg.host = host;
    msg.epoch = epoch;
    msg.report_count = route_count[s];
    msg.bytes = std::move(route_bytes[s]);
    ShardMsg evicted;
    // umon-sca: allow(SA002) kBlock backpressure wait must happen under
    // front_mutex_: the seal drain barrier's FIFO argument needs pushes and
    // submits ordered by the same lock, and the wait is bounded by worker
    // drain progress.
    switch (shards_[s]->queue.push(std::move(msg), evicted)) {
      case BatchQueue<ShardMsg>::PushResult::kOk:
        ins_->batches_enqueued->inc();
        ins_->queue_depth[s]->add(1);
        break;
      case BatchQueue<ShardMsg>::PushResult::kRejected:
        ins_->batches_shed->inc();
        ins_->batches_rejected->inc();
        ins_->reports_shed->inc(route_count[s]);
        UMON_LOG(kDebug, "collector", "backpressure shed incoming batch",
                 {"shard", std::to_string(s)},
                 {"reports", std::to_string(route_count[s])});
        break;
      case BatchQueue<ShardMsg>::PushResult::kEvictedOldest:
        ins_->batches_enqueued->inc();
        ins_->batches_shed->inc();
        ins_->batches_evicted->inc();
        ins_->reports_shed->inc(evicted.report_count);
        UMON_LOG(kDebug, "collector", "backpressure evicted oldest batch",
                 {"shard", std::to_string(s)},
                 {"reports", std::to_string(evicted.report_count)});
        break;
    }
  }
  return true;
}

void Collector::submit_mirror_batch(
    std::vector<uevent::MirroredPacket> packets) {
  if (packets.empty()) return;
  std::lock_guard lock(front_mutex_);
  ShardMsg msg;
  msg.kind = ShardMsg::Kind::kMirror;
  msg.mirror = std::move(packets);
  // Mirror ingest is a cheap sorted merge; round-robin keeps any shard from
  // becoming the designated mirror worker.
  const std::size_t s = mirror_rr_++ % shards_.size();
  ShardMsg evicted;
  // umon-sca: allow(SA002) same drain-barrier ordering argument as
  // submit_report_payload: the bounded kBlock wait must stay under
  // front_mutex_ so seals observe a FIFO submit/push order.
  switch (shards_[s]->queue.push(std::move(msg), evicted)) {
    case BatchQueue<ShardMsg>::PushResult::kOk:
      ins_->batches_enqueued->inc();
      ins_->queue_depth[s]->add(1);
      break;
    case BatchQueue<ShardMsg>::PushResult::kRejected:
      ins_->batches_shed->inc();
      ins_->batches_rejected->inc();
      break;
    case BatchQueue<ShardMsg>::PushResult::kEvictedOldest:
      ins_->batches_enqueued->inc();
      ins_->batches_shed->inc();
      ins_->batches_evicted->inc();
      ins_->reports_shed->inc(evicted.report_count);
      break;
  }
}

void Collector::seal_epoch(int host, std::uint32_t epoch,
                           std::optional<std::uint32_t> end_seq) {
  {
    std::lock_guard lock(front_mutex_);
    HostSeqState& st = seq_state_[host];
    std::uint64_t received = 0;
    std::uint32_t seen_next = st.epoch_start_seq;
    auto rcv = st.received_by_epoch.find(epoch);
    if (rcv != st.received_by_epoch.end()) {
      received = rcv->second.count;
      seen_next = rcv->second.max_seq_next;
      st.received_by_epoch.erase(rcv);
    }
    std::uint32_t end = end_seq.value_or(seen_next);
    if (end < st.epoch_start_seq) end = st.epoch_start_seq;
    const std::uint64_t expected = end - st.epoch_start_seq;
    if (expected > received) {
      ins_->reports_lost->inc(expected - received);
      if (epoch_loss_hook_) {
        epoch_loss_hook_(host, epoch, expected - received);
      }
      UMON_LOG(kInfo, "collector", "sequence gap at epoch seal",
               {"host", std::to_string(host)},
               {"epoch", std::to_string(epoch)},
               {"lost", std::to_string(expected - received)});
    }
    st.epoch_start_seq = end;
  }
  for (auto& sh : shards_) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kSeal;
    msg.host = host;
    msg.epoch = epoch;
    sh->queue.push_control(std::move(msg));
  }
}

void Collector::note_crash_damage(int host, std::uint32_t epoch,
                                  std::uint64_t count) {
  if (count == 0) return;
  std::lock_guard lock(crash_mutex_);
  crash_damage_[epoch_key(host, epoch)] += count;
}

void Collector::settle_crash_damage(std::uint64_t key) {
  std::lock_guard lock(crash_mutex_);
  auto it = crash_damage_.find(key);
  if (it == crash_damage_.end()) return;
  settled_damage_.push_back({static_cast<int>(key >> 32),
                             static_cast<std::uint32_t>(key), it->second});
  crash_damage_.erase(it);
}

void Collector::fire_settled_damage() {
  std::vector<SettledDamage> due;
  {
    std::lock_guard lock(crash_mutex_);
    due.swap(settled_damage_);
  }
  if (!epoch_loss_hook_) return;
  for (const SettledDamage& d : due) {
    epoch_loss_hook_(d.host, d.epoch, d.lost);
  }
}

void Collector::worker(int shard_id) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard_id)];
  telemetry::Gauge* depth =
      ins_->queue_depth[static_cast<std::size_t>(shard_id)];
  ShardMsg msg;
  while (sh.queue.pop(msg)) {
    switch (msg.kind) {
      case ShardMsg::Kind::kReports:
        depth->add(-1);
        if (sh.down) {
          // A crashed shard sheds its traffic instead of wedging the
          // producers; the loss is counted, never silent.
          ins_->batches_crashed->inc();
          ins_->reports_crashed->inc(msg.report_count);
          note_crash_damage(msg.host, msg.epoch, msg.report_count);
          break;
        }
        handle_reports(shard_id, msg);
        break;
      case ShardMsg::Kind::kMirror: {
        depth->add(-1);
        if (sh.down) {
          ins_->batches_crashed->inc();
          break;
        }
        const std::uint64_t n = msg.mirror.size();
        {
          std::lock_guard sink_lock(sink_mutex_);
          sink_.ingest_mirrored(msg.mirror);
        }
        ins_->mirror_packets->inc(n);
        break;
      }
      case ShardMsg::Kind::kSeal:
        // Seals process even while down: the crashed shard contributes its
        // (empty) share so the epoch barrier completes with partial data
        // instead of holding every other shard's fragments hostage.
        handle_seal(shard_id, msg);
        break;
      case ShardMsg::Kind::kBarrier:
        msg.barrier->ack(/*live=*/!sh.down);
        break;
      case ShardMsg::Kind::kCrash: {
        sh.down = true;
        ins_->shard_crashes->inc();
        std::uint64_t staged_fragments = 0;
        for (const auto& [key, staged] : sh.staging) {
          staged_fragments += staged.fragments.size();
          note_crash_damage(static_cast<int>(key >> 32),
                            static_cast<std::uint32_t>(key),
                            staged.fragments.size());
        }
        ins_->fragments_crashed->inc(staged_fragments);
        sh.staging.clear();  // a crash loses in-memory state
        UMON_LOG(kWarn, "collector", "shard crashed",
                 {"shard", std::to_string(shard_id)},
                 {"staged_fragments", std::to_string(staged_fragments)});
        break;
      }
      case ShardMsg::Kind::kRestart:
        sh.down = false;
        ins_->shard_restarts->inc();
        UMON_LOG(kInfo, "collector", "shard restarted",
                 {"shard", std::to_string(shard_id)});
        break;
      case ShardMsg::Kind::kStop:
        return;
    }
  }
}

void Collector::handle_reports(int shard_id, ShardMsg& msg) {
  UMON_TRACE_SPAN_LINEAGE("collector/batch_decode",
                          obs::LineageTracker::key_of(
                              static_cast<std::uint32_t>(msg.host),
                              msg.epoch));
  UMON_PROF_SCOPE(kShardDecode);
  telemetry::ScopedTimer timer(ins_->decode_latency_us);
  Shard& sh = *shards_[static_cast<std::size_t>(shard_id)];
  Shard::StagedEpoch& staged = sh.staging[epoch_key(msg.host, msg.epoch)];
  staged.wire_bytes += msg.bytes.size();

  const std::span<const std::uint8_t> in(msg.bytes);
  std::size_t offset = 0;
  std::uint64_t decoded = 0;  // batched into the counter once per payload
  while (offset < in.size()) {
    auto report = sketch::decode_report(in, offset);
    if (!report) {
      // Frames passed the front-door scan, so this is defensive; count the
      // remainder of the batch as malformed and move on.
      ins_->reports_malformed->inc();
      UMON_LOG(kWarn, "collector", "shard-side decode failed",
               {"host", std::to_string(msg.host)},
               {"shard", std::to_string(shard_id)});
      break;
    }
    ++decoded;
    if (!report->flow) continue;  // light-part report: accounting only
    const std::vector<double> series = report->report.reconstruct();
    const Nanos end_ns = window_start(
        report->report.w0 + static_cast<WindowId>(series.size()),
        cfg_.window_shift);
    if (end_ns > staged.max_event_ns) staged.max_event_ns = end_ns;
    analyzer::Analyzer::SparseFragment frag;
    frag.flow = *report->flow;
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (series[i] == 0) continue;
      frag.windows.emplace_back(
          report->report.w0 + static_cast<WindowId>(i), series[i]);
    }
    if (!frag.windows.empty()) staged.fragments.push_back(std::move(frag));
  }
  ins_->reports_decoded->inc(decoded);
  if (lineage_ != nullptr) {
    lineage_->on_decode(static_cast<std::uint32_t>(msg.host), msg.epoch,
                        shard_id, static_cast<std::uint32_t>(decoded));
  }
  if (decode_event_hook_ && staged.max_event_ns >= 0) {
    decode_event_hook_(staged.max_event_ns);
  }
}

void Collector::handle_seal(int shard_id, const ShardMsg& msg) {
  UMON_TRACE_SPAN("collector/epoch_seal");
  Shard& sh = *shards_[static_cast<std::size_t>(shard_id)];
  const std::uint64_t key = epoch_key(msg.host, msg.epoch);
  Shard::StagedEpoch staged;
  if (auto it = sh.staging.find(key); it != sh.staging.end()) {
    staged = std::move(it->second);
    sh.staging.erase(it);
  }

  std::unique_lock el(epoch_mutex_);
  PendingEpoch& p = pending_[key];
  p.stage(key, shard_id, shards_.size(), std::move(staged));
  p.acks += 1;
  if (p.acks < cfg_.shards) return;
  ready_.push_back(std::move(p));
  pending_.erase(key);
  // Every shard acks seals in FIFO order, so epochs complete in seal order.
  // One flusher at a time drains the completed FIFO, so they also reach the
  // sink in seal order: a shard that completes an epoch while another is
  // flushing leaves it queued, and the active flusher drains it before its
  // own shard moves on (which keeps drain()'s barrier argument intact).
  if (flushing_) return;
  flushing_ = true;
  while (!ready_.empty()) {
    std::vector<PendingEpoch> due;
    due.swap(ready_);
    el.unlock();
    for (PendingEpoch& done : due) flush_epoch_to_sink(std::move(done));
    el.lock();
  }
  flushing_ = false;
}

void Collector::flush_epoch_to_sink(PendingEpoch&& done) {
  UMON_TRACE_SPAN_LINEAGE("collector/epoch_flush",
                          obs::LineageTracker::key_of(
                              static_cast<std::uint32_t>(done.host),
                              done.epoch));
  UMON_PROF_SCOPE(kEpochFlush);
  telemetry::ScopedTimer timer(ins_->flush_latency_us);
  // The seal barrier just completed (every shard acked), so queue FIFO
  // guarantees any batch of this epoch a crashed shard discarded has been
  // dequeued and its damage recorded — settle it for the loss hook.
  settle_crash_damage(epoch_key(done.host, done.epoch));
  analyzer::Analyzer::DecodedReportBatch batch;
  batch.host = done.host;
  batch.epoch = done.epoch;
  batch.wire_bytes = done.wire_bytes;
  batch.fragments = std::move(done).merged();
  const std::uint64_t n = batch.fragments.size();
  {
    std::lock_guard sink_lock(sink_mutex_);
    sink_.ingest_report_batch(batch);
  }
  ins_->epochs_flushed->inc();
  ins_->fragments_ingested->inc(n);
  if (curve_event_hook_ && done.max_event_ns >= 0) {
    curve_event_hook_(done.max_event_ns);
  }
  if (epoch_seal_hook_) epoch_seal_hook_(done.host, done.epoch);
}

CollectorStats Collector::stats() const {
  CollectorStats out;
  // One pass over the registry snapshot instead of field-by-field counter
  // reads: every series is resolved at the same point in the snapshot loop,
  // and new instruments show up in exports without touching this view.
  for (const auto& s : ins_->reg.snapshot()) {
    if (s.kind != telemetry::MetricRegistry::Kind::kCounter) continue;
    const std::uint64_t v = s.counter_value;
    if (s.name == "umon_collector_payloads_submitted_total") {
      out.payloads_submitted = v;
    } else if (s.name == "umon_collector_payloads_malformed_total") {
      out.payloads_malformed = v;
    } else if (s.name == "umon_collector_batches_enqueued_total") {
      out.batches_enqueued = v;
    } else if (s.name == "umon_collector_batches_shed_total") {
      out.batches_shed = v;
    } else if (s.name == "umon_collector_batches_rejected_total") {
      out.batches_rejected = v;
    } else if (s.name == "umon_collector_batches_evicted_total") {
      out.batches_evicted = v;
    } else if (s.name == "umon_collector_reports_scanned_total") {
      out.reports_scanned = v;
    } else if (s.name == "umon_collector_reports_decoded_total") {
      out.reports_decoded = v;
    } else if (s.name == "umon_collector_reports_malformed_total") {
      out.reports_malformed = v;
    } else if (s.name == "umon_collector_reports_shed_total") {
      out.reports_shed = v;
    } else if (s.name == "umon_collector_reports_lost_total") {
      out.reports_lost = v;
    } else if (s.name == "umon_collector_mirror_packets_total") {
      out.mirror_packets = v;
    } else if (s.name == "umon_collector_epochs_flushed_total") {
      out.epochs_flushed = v;
    } else if (s.name == "umon_collector_fragments_ingested_total") {
      out.fragments_ingested = v;
    } else if (s.name == "umon_collector_batches_crashed_total") {
      out.batches_crashed = v;
    } else if (s.name == "umon_collector_reports_crashed_total") {
      out.reports_crashed = v;
    } else if (s.name == "umon_collector_fragments_crashed_total") {
      out.fragments_crashed = v;
    } else if (s.name == "umon_collector_shard_crashes_total") {
      out.shard_crashes = v;
    } else if (s.name == "umon_collector_shard_restarts_total") {
      out.shard_restarts = v;
    }
  }
  {
    std::lock_guard lock(front_mutex_);
    out.bytes_by_host = bytes_by_host_;
  }
  return out;
}

}  // namespace umon::collector
