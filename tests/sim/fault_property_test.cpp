// Fuzz-style properties of the fault layer: random schedules over random
// synthetic mixes must never crash, never double-count, and always conserve
// the request stream — hits + misses + lost == total, per window and
// overall.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "trace/dense_trace.hpp"
#include "util/rng.hpp"

namespace webcache::sim {
namespace {

trace::Trace random_trace(util::Rng& rng) {
  synth::GeneratorOptions gen;
  gen.seed = rng.below(1 << 20);
  synth::WorkloadProfile profile = rng.below(2) == 0
                                       ? synth::WorkloadProfile::DFN()
                                       : synth::WorkloadProfile::RTP();
  return synth::TraceGenerator(profile.scaled(0.002), gen).generate();
}

FaultSchedule random_schedule(util::Rng& rng, std::uint64_t total_requests,
                              std::uint32_t nodes, bool with_root) {
  FaultSchedule s;
  const std::uint64_t events = rng.below(12);
  for (std::uint64_t i = 0; i < events; ++i) {
    FaultEvent ev;
    ev.at_request = 1 + rng.below(total_requests + 10);  // may never fire
    ev.node = static_cast<std::uint32_t>(rng.below(nodes));
    const std::uint64_t kinds = with_root ? 6 : 2;
    switch (rng.below(kinds)) {
      case 0: ev.kind = FaultKind::kEdgeCrash; break;
      case 1: ev.kind = FaultKind::kEdgeRecover; break;
      case 2: ev.kind = FaultKind::kRootOutage; break;
      case 3: ev.kind = FaultKind::kRootRecover; break;
      case 4: ev.kind = FaultKind::kProbeDegrade; break;
      default: ev.kind = FaultKind::kProbeRestore; break;
    }
    s.events.push_back(ev);
  }
  s.max_probe_retries = static_cast<std::uint32_t>(rng.below(3));
  s.probe_timeout_rate = static_cast<double>(rng.below(101)) / 100.0;
  s.seed = rng.below(1 << 30);
  return s;
}

/// hits + misses + lost == requests, bytes likewise; per class sums match
/// the overall counters.
void expect_window_conserved(const obs::WindowSample& w,
                             const std::string& label) {
  EXPECT_LE(w.overall.hits + w.overall.lost, w.overall.requests) << label;
  EXPECT_LE(w.overall.hit_bytes + w.overall.lost_bytes,
            w.overall.requested_bytes)
      << label;
  std::uint64_t requests = 0, hits = 0, lost = 0, req_bytes = 0;
  for (const obs::WindowCounters& c : w.per_class) {
    requests += c.requests;
    hits += c.hits;
    lost += c.lost;
    req_bytes += c.requested_bytes;
    EXPECT_LE(c.hits + c.lost, c.requests) << label;
  }
  EXPECT_EQ(requests, w.overall.requests) << label;
  EXPECT_EQ(hits, w.overall.hits) << label;
  EXPECT_EQ(lost, w.overall.lost) << label;
  EXPECT_EQ(req_bytes, w.overall.requested_bytes) << label;
}

TEST(FaultProperty, RandomHierarchySchedulesConserveRequests) {
  util::Rng rng(20260807);
  for (int round = 0; round < 8; ++round) {
    const trace::DenseTrace t =
        trace::densify(random_trace(rng), trace::ClientColumn::kLoad);
    HierarchyConfig config;
    config.edge_count = 1 + static_cast<std::uint32_t>(rng.below(4));
    config.edge_capacity_bytes =
        t.overall_size_bytes() / (50 * config.edge_count);
    config.edge_policy = cache::policy_spec_from_name("GD*(1)");
    config.root_capacity_bytes = t.overall_size_bytes() / 12;
    config.root_policy = cache::policy_spec_from_name("GD*(packet)");
    config.sibling_cooperation = rng.below(2) == 0;

    const FaultSchedule s = random_schedule(
        rng, t.total_requests(), config.edge_count, /*with_root=*/true);
    const std::string label = "round " + std::to_string(round) + " (" +
                              std::to_string(s.events.size()) + " events)";

    obs::RecordingSink sink(1 + rng.below(2000));
    const HierarchyResult r = simulate_hierarchy(t, config, &sink, &s);

    // Overall conservation: lost requests are offered, never hits; every
    // hit happened at exactly one level (no double counting).
    EXPECT_LE(r.offered.hits + r.faults.lost_requests, r.offered.requests)
        << label;
    EXPECT_EQ(r.offered.hits,
              r.edge_hits.hits + r.sibling_hits.hits + r.root_hits.hits)
        << label;
    EXPECT_LE(r.faults.lost_requests, r.faults.failovers) << label;

    // Window-level conservation and roll-up equality.
    std::uint64_t lost = 0, failovers = 0, timeouts = 0, events = 0;
    const obs::MetricsSeries& series = sink.series();
    for (std::size_t i = 0; i < series.windows.size(); ++i) {
      expect_window_conserved(series.windows[i],
                              label + " window " + std::to_string(i));
      lost += series.windows[i].overall.lost;
      failovers += series.windows[i].failovers;
      timeouts += series.windows[i].probe_timeouts;
      events += series.windows[i].fault_events;
    }
    EXPECT_EQ(lost, r.faults.lost_requests) << label;
    EXPECT_EQ(failovers, r.faults.failovers) << label;
    EXPECT_EQ(timeouts, r.faults.probe_timeouts) << label;
    EXPECT_EQ(events, r.faults.events_applied) << label;

    const obs::WindowCounters totals = series.totals();
    EXPECT_EQ(totals.requests, r.offered.requests) << label;
    EXPECT_EQ(totals.hits, r.offered.hits) << label;
    EXPECT_EQ(totals.requested_bytes, r.offered.requested_bytes) << label;
    EXPECT_EQ(totals.lost, r.faults.lost_requests) << label;

    // The instrumented run is a pure observation of the uninstrumented one.
    const HierarchyResult bare = simulate_hierarchy(t, config, nullptr, &s);
    EXPECT_EQ(bare.offered.hits, r.offered.hits) << label;
    EXPECT_EQ(bare.faults.lost_requests, r.faults.lost_requests) << label;
    EXPECT_EQ(bare.faults.probe_timeouts, r.faults.probe_timeouts) << label;
  }
}

TEST(FaultProperty, RandomPartitionedSchedulesConserveRequests) {
  util::Rng rng(424242);
  std::array<double, trace::kDocumentClassCount> weights{};
  weights.fill(1.0);
  for (int round = 0; round < 8; ++round) {
    const trace::Trace t = random_trace(rng);
    const FaultSchedule s = random_schedule(
        rng, t.total_requests(),
        static_cast<std::uint32_t>(trace::kDocumentClassCount),
        /*with_root=*/false);
    const std::string label = "round " + std::to_string(round);

    cache::PartitionedCache cache(
        cache::PartitionedCacheConfig::uniform_policy(
            t.overall_size_bytes() / 25,
            cache::policy_spec_from_name("LRU"), weights));
    obs::RecordingSink sink(1 + rng.below(2000));
    SimulatorOptions options;
    const SimResult r = simulate(trace::densify(t), cache, options, &sink, &s);

    EXPECT_EQ(r.overall.requests, r.measured_requests) << label;
    EXPECT_LE(r.overall.hits + r.faults.lost_requests, r.overall.requests)
        << label;
    std::uint64_t class_requests = 0, class_hits = 0;
    for (const HitCounters& c : r.per_class) {
      class_requests += c.requests;
      class_hits += c.hits;
    }
    EXPECT_EQ(class_requests, r.overall.requests) << label;
    EXPECT_EQ(class_hits, r.overall.hits) << label;

    const obs::MetricsSeries& series = sink.series();
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < series.windows.size(); ++i) {
      expect_window_conserved(series.windows[i],
                              label + " window " + std::to_string(i));
      lost += series.windows[i].overall.lost;
    }
    EXPECT_EQ(lost, r.faults.lost_requests) << label;
    const obs::WindowCounters totals = series.totals();
    EXPECT_EQ(totals.requests, r.overall.requests) << label;
    EXPECT_EQ(totals.hits, r.overall.hits) << label;
  }
}

TEST(FaultProperty, ResultsAreReproducible) {
  // Same trace + same schedule -> identical counters, twice over (fresh
  // caches each time): the determinism the 1-based indexing exists for.
  util::Rng rng(777);
  const trace::DenseTrace t =
      trace::densify(random_trace(rng), trace::ClientColumn::kLoad);
  HierarchyConfig config;
  config.edge_count = 4;
  config.edge_capacity_bytes = t.overall_size_bytes() / 200;
  config.edge_policy = cache::policy_spec_from_name("LRU");
  config.root_capacity_bytes = t.overall_size_bytes() / 12;
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.sibling_cooperation = true;
  const FaultSchedule s =
      random_schedule(rng, t.total_requests(), 4, /*with_root=*/true);

  const HierarchyResult a = simulate_hierarchy(t, config, nullptr, &s);
  const HierarchyResult b = simulate_hierarchy(t, config, nullptr, &s);
  EXPECT_EQ(a.offered.hits, b.offered.hits);
  EXPECT_EQ(a.faults.lost_requests, b.faults.lost_requests);
  EXPECT_EQ(a.faults.probe_timeouts, b.faults.probe_timeouts);
  EXPECT_EQ(a.faults.failovers, b.faults.failovers);
  EXPECT_EQ(a.edge_evictions, b.edge_evictions);
}

}  // namespace
}  // namespace webcache::sim
