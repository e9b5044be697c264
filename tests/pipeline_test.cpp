// umon::pipeline: the reporting-period driver behind umon_sim and
// bench_overhead.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "pipeline/driver.hpp"
#include "workload/generator.hpp"

namespace umon::pipeline {
namespace {

TEST(Pipeline, BadAlarmRulesFailCreate) {
  PipelineConfig cfg;
  cfg.health = true;
  cfg.health_alarms = "no such rule";
  std::string err;
  EXPECT_EQ(Pipeline::create(cfg, &err), nullptr);
  EXPECT_NE(err.find("alarm"), std::string::npos) << err;
}

// bench_overhead's reliable leg: over a lossless, jitter-free wire every
// epoch settles without a retransmit and is sealed exactly once.
TEST(Pipeline, LosslessReliableRunSealsEveryEpoch) {
  netsim::NetworkConfig ncfg;
  ncfg.queue_sample_interval = 0;
  auto net = netsim::Network::fat_tree(ncfg, 4);
  PipelineConfig cfg;
  cfg.hosts = net->host_count();
  cfg.uplink_reliable = true;
  const auto p = Pipeline::create(cfg, nullptr);
  ASSERT_NE(p, nullptr);
  net->set_host_tx_hook([pl = p.get()](int host, const PacketRecord& r) {
    pl->on_packet(host, r);
  });
  workload::WorkloadParams wp;
  wp.hosts = cfg.hosts;
  wp.load = 0.15;
  wp.duration = 2 * kMilli;
  wp.seed = 7;
  const workload::Workload w =
      workload::generate(workload::WorkloadKind::kHadoop, wp);
  workload::install(w, *net);

  std::uint64_t ticks = 0;
  const Nanos t = p->run(
      4 * kMilli, [&](Nanos now) { net->run_until(now); },
      [&](Nanos) { ++ticks; });
  net->finish();
  p->finish(t);

  const resilience::ReliableStats ls = p->link().stats();
  EXPECT_GT(ls.frames_sent, 0u);
  EXPECT_EQ(ls.frames_retransmitted, 0u);
  EXPECT_EQ(ls.epochs_unrecovered, 0u);
  const collector::CollectorStats cs = p->collector().stats();
  EXPECT_EQ(cs.epochs_flushed, ticks * static_cast<std::uint64_t>(cfg.hosts));
  EXPECT_EQ(cs.reports_lost, 0u);
  EXPECT_GT(p->analyzer().report_bytes_ingested(), 0u);
}

}  // namespace
}  // namespace umon::pipeline
