// Property tests for the RecordingSink's windowed series.
//
// The invariants the obs layer guarantees (and the exporters and golden
// harness rely on):
//   * windows partition the request stream: contiguous 1-based ranges,
//     full-length except the tail, last_request == total_requests;
//   * the series sums back to the aggregate SimResult *exactly* —
//     measured requests/hits/bytes, whole-run evictions, bypasses;
//   * per-class counters sum to the window's overall counters, window by
//     window;
//   * policy state traces (aging L, GD*'s beta, heap size) appear exactly
//     for the policies that have them;
//   * a sink is reusable: begin_run resets, end_run detaches.
// Composite frontends get the same treatment: the hierarchy sink observes
// the client-offered stream and mesh-wide evictions; the partitioned sink
// aggregates heap entries and drops the per-partition aging terms.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::obs {
namespace {

constexpr std::uint64_t kWindow = 1000;

trace::DenseTrace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return trace::densify(generator.generate());
}

std::uint64_t capacity_of(const trace::DenseTrace& t) {
  return t.overall_size_bytes() / 25;  // 4%: eviction-heavy
}

void expect_sums_back(const MetricsSeries& series, const sim::SimResult& r,
                      const std::string& label) {
  const WindowCounters totals = series.totals();
  EXPECT_EQ(totals.requests, r.overall.requests) << label;
  EXPECT_EQ(totals.hits, r.overall.hits) << label;
  EXPECT_EQ(totals.requested_bytes, r.overall.requested_bytes) << label;
  EXPECT_EQ(totals.hit_bytes, r.overall.hit_bytes) << label;
  EXPECT_EQ(totals.evictions, r.evictions) << label;
  EXPECT_EQ(series.total_bypasses(), r.bypasses) << label;

  const auto per_class = series.class_totals();
  for (const auto cls : trace::kAllDocumentClasses) {
    const auto i = static_cast<std::size_t>(cls);
    const std::string where = label + " class " + std::to_string(i);
    EXPECT_EQ(per_class[i].requests, r.per_class[i].requests) << where;
    EXPECT_EQ(per_class[i].hits, r.per_class[i].hits) << where;
    EXPECT_EQ(per_class[i].requested_bytes, r.per_class[i].requested_bytes)
        << where;
    EXPECT_EQ(per_class[i].hit_bytes, r.per_class[i].hit_bytes) << where;
  }
}

TEST(RecordingSink, RejectsZeroLengthWindows) {
  EXPECT_THROW(RecordingSink(0), std::invalid_argument);
}

TEST(RecordingSink, WindowsPartitionTheRequestStream) {
  const trace::DenseTrace t = recorded_trace();
  RecordingSink sink(kWindow);
  sim::simulate(t, capacity_of(t), cache::policy_spec_from_name("GD*(1)"),
                {}, sink);

  const MetricsSeries& series = sink.series();
  EXPECT_EQ(series.window_requests, kWindow);
  EXPECT_EQ(series.total_requests, t.trace.total_requests());
  ASSERT_FALSE(series.windows.empty());

  std::uint64_t expected_first = 1;
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const WindowSample& w = series.windows[i];
    EXPECT_EQ(w.first_request, expected_first) << "window " << i;
    EXPECT_GE(w.last_request, w.first_request) << "window " << i;
    if (i + 1 < series.windows.size()) {
      EXPECT_EQ(w.last_request - w.first_request + 1, kWindow)
          << "only the tail window may be short (window " << i << ")";
    }
    expected_first = w.last_request + 1;
  }
  EXPECT_EQ(series.windows.back().last_request, t.trace.total_requests());
}

TEST(RecordingSink, SeriesSumsBackToAggregateExactly) {
  const trace::DenseTrace t = recorded_trace();
  // LRU-THOLD exercises the bypass counters, GD*(packet) the modification
  // and eviction paths under the byte-oriented cost model.
  for (const std::string name :
       {"LRU", "GD*(1)", "GD*(packet)", "LRU-THOLD(300000)", "LFU-DA"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    RecordingSink sink(kWindow);
    const sim::SimResult r = sim::simulate(t, capacity_of(t), spec, {}, sink);
    expect_sums_back(sink.series(), r, name);
  }
}

TEST(RecordingSink, PerClassCountersSumToOverallPerWindow) {
  const trace::DenseTrace t = recorded_trace();
  RecordingSink sink(kWindow);
  sim::simulate(t, capacity_of(t),
                cache::policy_spec_from_name("GDS(packet)"), {}, sink);

  for (const WindowSample& w : sink.series().windows) {
    WindowCounters sum;
    for (const WindowCounters& c : w.per_class) sum.add(c);
    EXPECT_EQ(sum.requests, w.overall.requests);
    EXPECT_EQ(sum.hits, w.overall.hits);
    EXPECT_EQ(sum.requested_bytes, w.overall.requested_bytes);
    EXPECT_EQ(sum.hit_bytes, w.overall.hit_bytes);
    EXPECT_EQ(sum.evictions, w.overall.evictions);
    EXPECT_EQ(sum.evicted_bytes, w.overall.evicted_bytes);
  }
}

TEST(RecordingSink, PolicyStateTracesMatchThePolicy) {
  const trace::DenseTrace t = recorded_trace();

  // GD* exposes the full probe: heap, inflation L, online beta.
  RecordingSink gdstar(kWindow);
  sim::simulate(t, capacity_of(t), cache::policy_spec_from_name("GD*(1)"),
                {}, gdstar);
  for (const WindowSample& w : gdstar.series().windows) {
    EXPECT_TRUE(w.state.aging.has_value());
    EXPECT_TRUE(w.state.beta.has_value());
    EXPECT_EQ(w.state.heap_entries, w.state.occupancy.total_objects)
        << "one heap entry per resident object";
    EXPECT_GE(*w.state.beta, 0.0);
  }

  // LFU-DA has an aging term (the cache age) but no beta.
  RecordingSink lfuda(kWindow);
  sim::simulate(t, capacity_of(t), cache::policy_spec_from_name("LFU-DA"),
                {}, lfuda);
  for (const WindowSample& w : lfuda.series().windows) {
    EXPECT_TRUE(w.state.aging.has_value());
    EXPECT_FALSE(w.state.beta.has_value());
  }

  // LRU has neither; the capacity bound must hold in every snapshot.
  RecordingSink lru(kWindow);
  const sim::SimResult r = sim::simulate(
      t, capacity_of(t), cache::policy_spec_from_name("LRU"), {}, lru);
  for (const WindowSample& w : lru.series().windows) {
    EXPECT_FALSE(w.state.aging.has_value());
    EXPECT_FALSE(w.state.beta.has_value());
    EXPECT_LE(w.state.occupancy.total_bytes, r.capacity_bytes);
  }
}

TEST(RecordingSink, ReusableAcrossRuns) {
  const trace::DenseTrace t = recorded_trace();
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");

  RecordingSink sink(kWindow);
  const sim::SimResult first =
      sim::simulate(t, capacity_of(t), spec, {}, sink);
  const std::size_t first_windows = sink.series().windows.size();

  const sim::SimResult second =
      sim::simulate(t, capacity_of(t), spec, {}, sink);
  EXPECT_EQ(sink.series().windows.size(), first_windows)
      << "begin_run must reset the series";
  EXPECT_EQ(sink.series().total_requests, t.trace.total_requests());
  EXPECT_EQ(first.overall.hits, second.overall.hits);
  expect_sums_back(sink.series(), second, "second run");
}

TEST(RecordingSink, HierarchySinkObservesTheOfferedStream) {
  const trace::DenseTrace t = recorded_trace();
  sim::HierarchyConfig config;
  config.edge_count = 4;
  config.edge_policy = cache::policy_spec_from_name("LRU");
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.root_capacity_bytes = capacity_of(t);
  config.edge_capacity_bytes = config.root_capacity_bytes / 4;

  RecordingSink sink(kWindow);
  const sim::HierarchyResult r = sim::simulate_hierarchy(t, config, sink);

  const WindowCounters totals = sink.series().totals();
  // The sink sees the client-offered stream: a hit is service by any level.
  EXPECT_EQ(totals.requests, r.offered.requests);
  EXPECT_EQ(totals.hits,
            r.edge_hits.hits + r.sibling_hits.hits + r.root_hits.hits);
  EXPECT_EQ(totals.requested_bytes, r.offered.requested_bytes);
  // Evictions arrive from every cache in the mesh, warm-up included.
  EXPECT_EQ(totals.evictions, r.edge_evictions + r.root_evictions);
  // The snapshot sums the mesh; the beta trace is the root's (GD*).
  ASSERT_FALSE(sink.series().windows.empty());
  EXPECT_TRUE(sink.series().windows.back().state.beta.has_value());
}

TEST(RecordingSink, PartitionedFrontendAggregatesTheProbe) {
  const trace::DenseTrace t = recorded_trace();
  std::array<double, trace::kDocumentClassCount> weights{};
  weights.fill(1.0 / trace::kDocumentClassCount);
  const auto config = cache::PartitionedCacheConfig::uniform_policy(
      capacity_of(t), cache::policy_spec_from_name("GDS(1)"), weights);

  cache::PartitionedCache cache(config);
  RecordingSink sink(kWindow);
  const sim::SimResult r = sim::simulate(t, cache, {}, sink);
  expect_sums_back(sink.series(), r, "partitioned");

  for (const WindowSample& w : sink.series().windows) {
    // Heap entries aggregate across partitions; there is no single aging
    // term or beta for the composite, so the probe leaves them unset.
    EXPECT_EQ(w.state.heap_entries, w.state.occupancy.total_objects);
    EXPECT_FALSE(w.state.aging.has_value());
    EXPECT_FALSE(w.state.beta.has_value());
  }
}

}  // namespace
}  // namespace webcache::obs
