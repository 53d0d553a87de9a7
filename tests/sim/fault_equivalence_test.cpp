// Empty-FaultSchedule bit-identity: the hierarchy's fault-aware replay loop
// must be a pure superset of the plain one. With no events scheduled, it
// yields exactly the counters of the plain loop, instrumented or not,
// across the policy factory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

const std::vector<std::string>& factory_policies() {
  static const std::vector<std::string> names = {
      "LRU",          "FIFO",   "SIZE",   "LFU",         "LFU-DA",
      "LRU-MIN",      "GDS(1)", "GDSF(1)", "GD*(1)",     "GD*(packet)",
  };
  return names;
}

trace::Trace recorded_trace() {
  synth::GeneratorOptions gen;
  gen.seed = 5;
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002),
                               gen)
      .generate();
}

void expect_no_fault_stats(const FaultStats& f, const std::string& label) {
  EXPECT_EQ(f.events_applied, 0u) << label;
  EXPECT_EQ(f.failovers, 0u) << label;
  EXPECT_EQ(f.lost_requests, 0u) << label;
  EXPECT_EQ(f.lost_bytes, 0u) << label;
  EXPECT_EQ(f.probe_timeouts, 0u) << label;
  EXPECT_EQ(f.origin_fetches, 0u) << label;
}

void expect_identical(const HierarchyResult& a, const HierarchyResult& b,
                      const std::string& label) {
  expect_same_counters(a.offered, b.offered, label + " offered");
  expect_same_counters(a.edge_hits, b.edge_hits, label + " edge");
  expect_same_counters(a.sibling_hits, b.sibling_hits, label + " sibling");
  expect_same_counters(a.root_hits, b.root_hits, label + " root");
  for (std::size_t c = 0; c < a.edge_per_class.size(); ++c) {
    expect_same_counters(a.edge_per_class[c], b.edge_per_class[c],
                         label + " edge class " + std::to_string(c));
    expect_same_counters(a.root_per_class[c], b.root_per_class[c],
                         label + " root class " + std::to_string(c));
  }
  EXPECT_EQ(a.root_requests, b.root_requests) << label;
  EXPECT_EQ(a.edge_evictions, b.edge_evictions) << label;
  EXPECT_EQ(a.root_evictions, b.root_evictions) << label;
}

TEST(FaultEquivalence, EmptyScheduleMatchesPlainHierarchy) {
  const trace::DenseTrace dense =
      trace::densify(recorded_trace(), trace::ClientColumn::kLoad);
  const FaultSchedule empty;

  for (const std::string& name : factory_policies()) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    HierarchyConfig config;
    config.edge_count = 3;
    config.edge_capacity_bytes = dense.overall_size_bytes() / 150;
    config.edge_policy = spec;
    config.root_capacity_bytes = dense.overall_size_bytes() / 12;
    config.root_policy = spec;
    config.sibling_cooperation = true;

    const HierarchyResult plain = simulate_hierarchy(dense, config);
    const HierarchyResult faulted =
        simulate_hierarchy(dense, config, nullptr, &empty);
    expect_identical(plain, faulted, name);
    expect_no_fault_stats(faulted.faults, name);
  }
}

TEST(FaultEquivalence, InstrumentedEmptyScheduleMatchesPlainSeries) {
  // The fault-aware instrumented loop must report the same flow series as
  // the plain instrumented loop with an empty schedule — the fault feed
  // only adds the availability samples (every node up, every window).
  const trace::DenseTrace t =
      trace::densify(recorded_trace(), trace::ClientColumn::kLoad);
  HierarchyConfig config;
  config.edge_count = 3;
  config.edge_capacity_bytes = t.overall_size_bytes() / 150;
  config.edge_policy = cache::policy_spec_from_name("GD*(1)");
  config.root_capacity_bytes = t.overall_size_bytes() / 12;
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.sibling_cooperation = true;

  obs::RecordingSink plain_sink(500);
  const HierarchyResult plain = simulate_hierarchy(t, config, &plain_sink);
  obs::RecordingSink fault_sink(500);
  const FaultSchedule empty;
  const HierarchyResult faulted =
      simulate_hierarchy(t, config, &fault_sink, &empty);

  expect_identical(plain, faulted, "instrumented");
  const obs::MetricsSeries& a = plain_sink.series();
  const obs::MetricsSeries& b = fault_sink.series();
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    const std::string label = "window " + std::to_string(i);
    EXPECT_EQ(a.windows[i].overall.requests, b.windows[i].overall.requests)
        << label;
    EXPECT_EQ(a.windows[i].overall.hits, b.windows[i].overall.hits) << label;
    EXPECT_EQ(a.windows[i].overall.evictions, b.windows[i].overall.evictions)
        << label;
    EXPECT_EQ(b.windows[i].overall.lost, 0u) << label;
    EXPECT_EQ(b.windows[i].failovers, 0u) << label;
    EXPECT_EQ(b.windows[i].fault_events, 0u) << label;
    // The plain run records no availability; the fault run reports 1.0.
    EXPECT_FALSE(a.windows[i].availability(b.fault_nodes).has_value());
    const auto avail = b.windows[i].availability(b.fault_nodes);
    ASSERT_TRUE(avail.has_value()) << label;
    EXPECT_DOUBLE_EQ(*avail, 1.0) << label;
  }
  EXPECT_EQ(a.fault_nodes, 0u);
  EXPECT_EQ(b.fault_nodes, 4u);  // 3 edges + root
  EXPECT_TRUE(b.warmup_curves.empty());
}

}  // namespace
}  // namespace webcache::sim
