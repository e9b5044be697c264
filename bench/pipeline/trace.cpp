#include "trace.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "netsim/network.hpp"
#include "sketch/wavesketch_full.hpp"
#include "telemetry/metrics.hpp"

namespace umon::pbench {
namespace {

/// Offered load as a share of the hosts' aggregate link bandwidth.
constexpr double kLoad = 0.3;

}  // namespace

Trace make_trace(const TraceSpec& spec) {
  netsim::NetworkConfig cfg;
  cfg.queue_sample_interval = 0;
  cfg.seed = spec.seed;
  auto net = netsim::Network::fat_tree(cfg, 4);
  workload::WorkloadParams wp;
  wp.hosts = net->host_count();
  wp.load = kLoad;
  wp.duration = spec.duration;
  wp.seed = spec.seed;
  const workload::Workload w = workload::generate(spec.kind, wp);

  Trace tr;
  tr.tick = spec.tick;
  tr.ticks = static_cast<int>((spec.horizon + spec.tick - 1) / spec.tick);
  tr.hosts = net->host_count();
  tr.flows = w.flows.size();
  tr.packet_ticks.resize(static_cast<std::size_t>(tr.ticks));
  tr.heavy_by_tick.resize(static_cast<std::size_t>(tr.ticks));

  std::unordered_map<std::uint64_t, std::uint32_t> heavy_index;
  for (const auto& f : w.flows) {
    if (f.bytes < 100'000) continue;
    heavy_index.emplace(f.key.packed(),
                        static_cast<std::uint32_t>(tr.heavy.size()));
    tr.heavy.push_back(f.key);
  }

  const Nanos end = tr.pass_length();
  net->set_host_tx_hook([&](int host, const PacketRecord& r) {
    if (r.timestamp < 0 || r.timestamp >= end) return;
    const auto t = static_cast<std::size_t>(r.timestamp / tr.tick);
    tr.packet_ticks[t].push_back(
        Packet{r.flow, r.timestamp, r.size, static_cast<std::uint16_t>(host)});
    ++tr.packets;
    const auto it = heavy_index.find(r.flow.packed());
    if (it == heavy_index.end()) return;
    tr.truth.add(r.flow, r.timestamp, r.size);
    auto& active = tr.heavy_by_tick[t];
    if (std::find(active.begin(), active.end(), it->second) == active.end()) {
      active.push_back(it->second);
    }
  });
  workload::install(w, *net);
  net->run_until(std::min(spec.horizon, end));
  net->finish();
  return tr;
}

SketchCost presketch(Trace& tr, const sketch::WaveSketchParams& params) {
  using telemetry::monotonic_ns;
  std::vector<std::unique_ptr<sketch::WaveSketchFull>> sketches;
  for (int h = 0; h < tr.hosts; ++h) {
    sketches.push_back(std::make_unique<sketch::WaveSketchFull>(params));
  }
  SketchCost cost;
  std::uint64_t update_nanos = 0, flush_nanos = 0;
  tr.report_ticks.resize(tr.packet_ticks.size());
  for (std::size_t t = 0; t < tr.packet_ticks.size(); ++t) {
    const std::uint64_t t0 = monotonic_ns();
    for (const Packet& p : tr.packet_ticks[t]) {
      sketches[p.host]->update(p.flow, p.ts, static_cast<Count>(p.size));
    }
    const std::uint64_t t1 = monotonic_ns();
    for (auto& sk : sketches) {
      tr.report_ticks[t].push_back(sk->flush_reports());
    }
    update_nanos += t1 - t0;
    flush_nanos += monotonic_ns() - t1;
    cost.packets += tr.packet_ticks[t].size();
    cost.flushes += sketches.size();
    std::vector<Packet>().swap(tr.packet_ticks[t]);
  }
  tr.packet_ticks.clear();
  cost.update_s = static_cast<double>(update_nanos) / 1e9;
  cost.flush_s = static_cast<double>(flush_nanos) / 1e9;
  return cost;
}

}  // namespace umon::pbench
