// Latency accounting for the hierarchy: requests served at the edge level
// (own edge or sibling) are free, rerouted fetches pay the simulator's
// fetch-latency model, and every timed-out sibling probe on a request's
// path is charged HierarchyConfig::probe_rtt_ms. A schedule whose probes
// never time out must make the probe-RTT knob invisible — bit-identical
// latency doubles whatever its value.
#include <gtest/gtest.h>

#include <string>

#include "cache/factory.hpp"
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

trace::DenseTrace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return trace::densify(generator.generate(), trace::ClientColumn::kLoad);
}

HierarchyConfig base_config(const trace::DenseTrace& t) {
  HierarchyConfig config;
  config.edge_count = 2;
  config.edge_policy = cache::policy_spec_from_name("LRU");
  config.edge_capacity_bytes = t.overall_size_bytes() / 200;
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.root_capacity_bytes = t.overall_size_bytes() / 12;
  return config;
}

TEST(HierarchyLatency, FaultFreeAccountingIsConsistent) {
  const trace::DenseTrace t = recorded_trace();
  const HierarchyConfig config = base_config(t);
  const HierarchyResult r = simulate_hierarchy(t, config);

  EXPECT_GT(r.all_miss_latency_ms, 0.0);
  EXPECT_GT(r.miss_latency_ms, 0.0);  // cold misses always pay
  // Edge service is free, so incurred latency can never exceed the
  // cacheless bound; with any edge hits at all it is strictly below it.
  EXPECT_LT(r.miss_latency_ms, r.all_miss_latency_ms);
  EXPECT_GT(r.latency_savings(), 0.0);
  EXPECT_LE(r.latency_savings(), 1.0);
}

TEST(HierarchyLatency, ProbeRttKnobInertWithoutFaults) {
  const trace::DenseTrace t = recorded_trace();
  HierarchyConfig config = base_config(t);
  config.sibling_cooperation = true;
  const HierarchyResult baseline = simulate_hierarchy(t, config);

  config.probe_rtt_ms = 7.25;  // no schedule: no probes can time out
  const HierarchyResult charged = simulate_hierarchy(t, config);
  EXPECT_EQ(baseline.miss_latency_ms, charged.miss_latency_ms);
  EXPECT_EQ(baseline.all_miss_latency_ms, charged.all_miss_latency_ms);
}

TEST(HierarchyLatency, ZeroTimeoutScheduleIsBitIdenticalAcrossRtt) {
  const trace::DenseTrace t = recorded_trace();
  HierarchyConfig config = base_config(t);
  config.sibling_cooperation = true;

  // Real outage churn, but a probe-timeout rate of zero: the degraded
  // window never times a probe out, so the RTT charge never applies.
  FaultSchedule schedule;
  schedule.events = {{50, FaultKind::kEdgeCrash, 0},
                     {400, FaultKind::kEdgeRecover, 0},
                     {600, FaultKind::kProbeDegrade, 1},
                     {2000, FaultKind::kProbeRestore, 1},
                     {2500, FaultKind::kRootOutage, 0},
                     {3000, FaultKind::kRootRecover, 0}};
  schedule.probe_timeout_rate = 0.0;
  schedule.seed = 11;

  const HierarchyResult baseline =
      simulate_hierarchy(t, config, nullptr, &schedule);
  EXPECT_EQ(baseline.faults.probe_timeouts, 0u);

  config.probe_rtt_ms = 9.5;
  const HierarchyResult charged =
      simulate_hierarchy(t, config, nullptr, &schedule);
  EXPECT_EQ(baseline.miss_latency_ms, charged.miss_latency_ms);
  EXPECT_EQ(baseline.all_miss_latency_ms, charged.all_miss_latency_ms);
  EXPECT_EQ(baseline.combined_hit_rate(), charged.combined_hit_rate());
}

TEST(HierarchyLatency, TimedOutProbesChargeExactlyRttEach) {
  const trace::DenseTrace t = recorded_trace();
  HierarchyConfig config = base_config(t);
  config.sibling_cooperation = true;
  // No warm-up: every request is measured, so every timed-out probe on the
  // path of a measured request is charged and the identity below is exact.
  config.simulator.warmup_fraction = 0.0;

  // Only probe degradation — all nodes stay up, so no request is ever lost
  // and probe_timeouts counts exactly the charged attempts.
  FaultSchedule schedule;
  const std::uint64_t mid = t.total_requests() / 2;
  schedule.events = {{1, FaultKind::kProbeDegrade, 1},
                     {mid, FaultKind::kProbeRestore, 1}};
  schedule.probe_timeout_rate = 1.0;  // degraded probes always time out
  schedule.max_probe_retries = 2;
  schedule.seed = 3;

  const HierarchyResult uncharged =
      simulate_hierarchy(t, config, nullptr, &schedule);
  ASSERT_GT(uncharged.faults.probe_timeouts, 0u);

  const double rtt = 5.0;
  config.probe_rtt_ms = rtt;
  const HierarchyResult charged =
      simulate_hierarchy(t, config, nullptr, &schedule);

  // Routing is independent of the RTT charge: same probes, same hits.
  EXPECT_EQ(charged.faults.probe_timeouts, uncharged.faults.probe_timeouts);
  EXPECT_EQ(charged.combined_hit_rate(), uncharged.combined_hit_rate());
  EXPECT_EQ(charged.all_miss_latency_ms, uncharged.all_miss_latency_ms);
  // The charged run interleaves RTT terms with fetch latencies, so the
  // summation order differs from adding the total at the end — compare up
  // to accumulated rounding, not bitwise.
  const double expected =
      uncharged.miss_latency_ms +
      rtt * static_cast<double>(charged.faults.probe_timeouts);
  EXPECT_NEAR(charged.miss_latency_ms, expected, 1e-6 * expected);
}

}  // namespace
}  // namespace webcache::sim
