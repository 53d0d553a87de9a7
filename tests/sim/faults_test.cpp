// Fault-injection layer: schedule parsing, the FaultRun state machine, and
// the degraded-routing semantics (failover, origin fetches, lost requests,
// recovery warm-up) over the hierarchy and the partitioned cache.
#include "sim/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

// ---------------------------------------------------------- schedule text

TEST(FaultSchedule, ParsesDirectivesEventsAndComments) {
  std::istringstream in(
      "# a fault scenario\n"
      "max-probe-retries 2\n"
      "probe-timeout-rate 0.75\n"
      "seed 99\n"
      "\n"
      "500 edge-crash 0   # take down edge 0\n"
      "800 edge-recover 0\n"
      "1000 root-outage\n"
      "1200 root-recover\n"
      "600 probe-degrade 1\n"
      "700 probe-restore 1\n");
  const FaultSchedule s = parse_fault_schedule(in);
  EXPECT_EQ(s.max_probe_retries, 2u);
  EXPECT_DOUBLE_EQ(s.probe_timeout_rate, 0.75);
  EXPECT_EQ(s.seed, 99u);
  ASSERT_EQ(s.events.size(), 6u);
  EXPECT_EQ(s.events[0].at_request, 500u);
  EXPECT_EQ(s.events[0].kind, FaultKind::kEdgeCrash);
  EXPECT_EQ(s.events[0].node, 0u);
  EXPECT_EQ(s.events[2].kind, FaultKind::kRootOutage);
  EXPECT_EQ(s.events[4].kind, FaultKind::kProbeDegrade);
  EXPECT_EQ(s.events[4].node, 1u);
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  try {
    parse_fault_schedule(in);
    FAIL() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FaultSchedule, MalformedLinesNameLineAndReason) {
  expect_parse_error("banana\n", "line 1");
  expect_parse_error("# ok\n10 edge-crash\n", "line 2");       // missing node
  expect_parse_error("10 root-outage 3\n", "line 1");          // stray node
  expect_parse_error("0 edge-crash 1\n", "line 1");            // 1-based
  expect_parse_error("10 melt-down 1\n", "line 1");            // unknown kind
  expect_parse_error("probe-timeout-rate 1.5\n", "line 1");    // out of range
  expect_parse_error("10 edge-crash 1 extra\n", "line 1");     // trailing
}

TEST(FaultSchedule, KindKeywordsRoundTrip) {
  EXPECT_STREQ(to_string(FaultKind::kEdgeCrash), "edge-crash");
  EXPECT_STREQ(to_string(FaultKind::kEdgeRecover), "edge-recover");
  EXPECT_STREQ(to_string(FaultKind::kRootOutage), "root-outage");
  EXPECT_STREQ(to_string(FaultKind::kRootRecover), "root-recover");
  EXPECT_STREQ(to_string(FaultKind::kProbeDegrade), "probe-degrade");
  EXPECT_STREQ(to_string(FaultKind::kProbeRestore), "probe-restore");
}

TEST(FaultSchedule, MissingFileThrows) {
  EXPECT_THROW(load_fault_schedule_file("/nonexistent/faults.txt"),
               std::runtime_error);
}

// ----------------------------------------------------------- FaultRun core

FaultSchedule schedule_of(std::vector<FaultEvent> events) {
  FaultSchedule s;
  s.events = std::move(events);
  return s;
}

TEST(FaultRun, ValidatesAgainstMeshShape) {
  // Node out of range.
  EXPECT_THROW(FaultRun(schedule_of({{10, FaultKind::kEdgeCrash, 4}}), 4,
                        /*has_root=*/true),
               std::invalid_argument);
  // Root and probe events need a root (partitioned runs have neither).
  EXPECT_THROW(FaultRun(schedule_of({{10, FaultKind::kRootOutage, 0}}), 4,
                        /*has_root=*/false),
               std::invalid_argument);
  EXPECT_THROW(FaultRun(schedule_of({{10, FaultKind::kProbeDegrade, 1}}), 4,
                        /*has_root=*/false),
               std::invalid_argument);
  // 1-based request indices.
  EXPECT_THROW(FaultRun(schedule_of({{0, FaultKind::kEdgeCrash, 0}}), 4,
                        /*has_root=*/true),
               std::invalid_argument);
  EXPECT_NO_THROW(FaultRun(schedule_of({{10, FaultKind::kEdgeCrash, 3}}), 4,
                           /*has_root=*/true));
}

TEST(FaultRun, AppliesEventsInOrderAndSkipsNoOps) {
  // Crash twice (second is a no-op), recover, recover again (no-op).
  FaultSchedule s = schedule_of({{5, FaultKind::kEdgeCrash, 1},
                                 {6, FaultKind::kEdgeCrash, 1},
                                 {8, FaultKind::kEdgeRecover, 1},
                                 {9, FaultKind::kEdgeRecover, 1}});
  FaultRun run(s, 2, /*has_root=*/true);
  std::uint64_t applied = 0;
  const auto count = [&](std::uint32_t, obs::FaultEventKind) { ++applied; };
  run.advance(4, count);
  EXPECT_TRUE(run.node_up(1));
  EXPECT_EQ(run.up_nodes(), 3u);  // 2 edges + root
  run.advance(7, count);
  EXPECT_FALSE(run.node_up(1));
  EXPECT_EQ(applied, 1u);  // the repeat crash was a no-op
  EXPECT_EQ(run.up_nodes(), 2u);
  run.advance(20, count);
  EXPECT_TRUE(run.node_up(1));
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(run.total_nodes(), 3u);
}

TEST(FaultRun, SameIndexEventsKeepFileOrder) {
  // Crash + recover at the same request index: both apply, in file order,
  // so the node ends up up (but cold — the caller crashed the cache).
  FaultSchedule s = schedule_of(
      {{5, FaultKind::kEdgeCrash, 0}, {5, FaultKind::kEdgeRecover, 0}});
  FaultRun run(s, 1, /*has_root=*/true);
  std::vector<obs::FaultEventKind> seen;
  run.advance(5, [&](std::uint32_t, obs::FaultEventKind k) {
    seen.push_back(k);
  });
  EXPECT_TRUE(run.node_up(0));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], obs::FaultEventKind::kCrash);
  EXPECT_EQ(seen[1], obs::FaultEventKind::kRecovery);
}

TEST(FaultRun, ProbeTimeoutsAreDeterministicAndRateShaped) {
  FaultSchedule s;
  s.probe_timeout_rate = 1.0;
  FaultRun always(s, 2, true);
  EXPECT_TRUE(always.probe_times_out(1, 0, 0));
  s.probe_timeout_rate = 0.0;
  FaultRun never(s, 2, true);
  EXPECT_FALSE(never.probe_times_out(1, 0, 0));

  s.probe_timeout_rate = 0.5;
  s.seed = 7;
  FaultRun half(s, 2, true);
  FaultRun half_again(s, 2, true);
  std::uint64_t timeouts = 0;
  for (std::uint64_t i = 1; i <= 4000; ++i) {
    const bool t = half.probe_times_out(i, 1, 0);
    EXPECT_EQ(t, half_again.probe_times_out(i, 1, 0));  // pure function
    timeouts += t ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(timeouts), 2000.0, 150.0);
}

// ------------------------------------------------------ hierarchy routing

trace::Trace small_trace() {
  synth::GeneratorOptions gen;
  gen.seed = 5;
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.005),
                               gen)
      .generate();
}

trace::DenseTrace small_dense_trace() {
  return trace::densify(small_trace(), trace::ClientColumn::kLoad);
}

HierarchyConfig basic_config(const trace::DenseTrace& t) {
  HierarchyConfig config;
  config.edge_count = 4;
  config.edge_capacity_bytes = t.overall_size_bytes() / 100;
  config.edge_policy = cache::policy_spec_from_name("GD*(1)");
  config.root_capacity_bytes = t.overall_size_bytes() / 12;
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  return config;
}

TEST(HierarchyFaults, EdgeCrashFailsOverToRoot) {
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  const HierarchyResult baseline = simulate_hierarchy(t, config);

  FaultSchedule s =
      schedule_of({{t.total_requests() / 2, FaultKind::kEdgeCrash, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);

  EXPECT_EQ(r.faults.events_applied, 1u);
  EXPECT_GT(r.faults.failovers, 0u);
  EXPECT_EQ(r.faults.lost_requests, 0u);  // root stays up
  EXPECT_EQ(r.faults.origin_fetches, 0u);
  // The offered stream is unchanged; the dead edge's share moves to the
  // root, so the root sees strictly more traffic than in the fault-free run.
  EXPECT_EQ(r.offered.requests, baseline.offered.requests);
  EXPECT_GT(r.root_requests, baseline.root_requests);
  EXPECT_LT(r.edge_hits.hits, baseline.edge_hits.hits);
}

TEST(HierarchyFaults, RootOutageServesFromOriginAndWarmsEdges) {
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);

  FaultSchedule s =
      schedule_of({{t.total_requests() / 2, FaultKind::kRootOutage, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);

  EXPECT_GT(r.faults.origin_fetches, 0u);
  EXPECT_EQ(r.faults.lost_requests, 0u);  // edges all up
  // Origin fetches still warm the edge, so the edges keep producing hits
  // after the outage begins.
  EXPECT_GT(r.edge_hits.hits, 0u);
  const HierarchyResult baseline = simulate_hierarchy(t, config);
  EXPECT_EQ(r.offered.requests, baseline.offered.requests);
  EXPECT_LT(r.root_hits.hits, baseline.root_hits.hits);
}

TEST(HierarchyFaults, DoubleFaultLosesRequests) {
  // Satellite: edge AND root down — the dead edge's clients have nowhere
  // to go (no mesh), so their requests are lost; everyone else is served.
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, 0},
                                 {mid, FaultKind::kRootOutage, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);

  EXPECT_GT(r.faults.lost_requests, 0u);
  EXPECT_GT(r.faults.lost_bytes, 0u);
  EXPECT_GT(r.faults.origin_fetches, 0u);  // the live edges' misses
  // Lost requests are offered but never hits.
  const HierarchyResult baseline = simulate_hierarchy(t, config);
  EXPECT_EQ(r.offered.requests, baseline.offered.requests);
  EXPECT_LE(r.offered.hits + r.faults.lost_requests, r.offered.requests);
}

TEST(HierarchyFaults, AllEdgesDownRoutesEverythingToRoot) {
  // Satellite: every edge down at once, root up — nothing is lost, every
  // measured request is a failover, the edge level never answers again.
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  FaultSchedule s = schedule_of({{1, FaultKind::kEdgeCrash, 0},
                                 {1, FaultKind::kEdgeCrash, 1},
                                 {1, FaultKind::kEdgeCrash, 2},
                                 {1, FaultKind::kEdgeCrash, 3}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);
  EXPECT_EQ(r.faults.lost_requests, 0u);
  EXPECT_EQ(r.faults.failovers, r.offered.requests);
  EXPECT_EQ(r.edge_hits.hits, 0u);
  EXPECT_EQ(r.root_requests, r.offered.requests);
}

TEST(HierarchyFaults, TotalOutageLosesEveryRequest) {
  // Satellite: all edges and the root down from request 1 — a total mesh
  // outage. Every measured request is lost, none is a hit.
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  FaultSchedule s = schedule_of({{1, FaultKind::kEdgeCrash, 0},
                                 {1, FaultKind::kEdgeCrash, 1},
                                 {1, FaultKind::kEdgeCrash, 2},
                                 {1, FaultKind::kEdgeCrash, 3},
                                 {1, FaultKind::kRootOutage, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);
  EXPECT_EQ(r.faults.lost_requests, r.offered.requests);
  EXPECT_EQ(r.offered.hits, 0u);
  EXPECT_EQ(r.edge_hits.hits + r.sibling_hits.hits + r.root_hits.hits, 0u);
  EXPECT_EQ(r.faults.lost_bytes, r.offered.requested_bytes);
}

TEST(HierarchyFaults, SingleEdgeHierarchyFailsOverStraightToRoot) {
  // Satellite: a 1-edge hierarchy has no siblings — an edge crash must go
  // straight to the root (and to lost when the root is down too), without
  // touching the (empty) sibling scan.
  const trace::DenseTrace t = small_dense_trace();
  HierarchyConfig config = basic_config(t);
  config.edge_count = 1;
  config.sibling_cooperation = true;  // cooperation with no siblings

  FaultSchedule s = schedule_of({{1, FaultKind::kEdgeCrash, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);
  EXPECT_EQ(r.faults.lost_requests, 0u);
  EXPECT_EQ(r.edge_hits.hits, 0u);
  EXPECT_EQ(r.sibling_hits.hits, 0u);
  EXPECT_EQ(r.root_requests, r.offered.requests);

  s.events.push_back({1, FaultKind::kRootOutage, 0});
  const HierarchyResult dark = simulate_hierarchy(t, config, nullptr, &s);
  EXPECT_EQ(dark.faults.lost_requests, dark.offered.requests);
}

TEST(HierarchyFaults, CrashAndRecoveryInSameWindowRestartsCold) {
  // Satellite: crash + recover at the same request index — the node stays
  // routable but restarts cold, so it produces fewer edge hits than the
  // fault-free run and no requests are lost or failed over.
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, 0},
                                 {mid, FaultKind::kEdgeRecover, 0}});
  const HierarchyResult r = simulate_hierarchy(t, config, nullptr, &s);
  const HierarchyResult baseline = simulate_hierarchy(t, config);
  EXPECT_EQ(r.faults.events_applied, 2u);
  EXPECT_EQ(r.faults.failovers, 0u);
  EXPECT_EQ(r.faults.lost_requests, 0u);
  EXPECT_LT(r.edge_hits.hits, baseline.edge_hits.hits);
  EXPECT_EQ(r.offered.requests, baseline.offered.requests);
}

TEST(HierarchyFaults, MeshFailoverPrefersSiblingsOverRoot) {
  const trace::DenseTrace t = small_dense_trace();
  HierarchyConfig mesh = basic_config(t);
  mesh.sibling_cooperation = true;
  const std::uint64_t mid = t.total_requests() / 2;
  const FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, 0}});

  const HierarchyResult with_mesh = simulate_hierarchy(t, mesh, nullptr, &s);
  HierarchyConfig solo = mesh;
  solo.sibling_cooperation = false;
  const HierarchyResult without = simulate_hierarchy(t, solo, nullptr, &s);

  // A sibling copy serves some of the dead edge's requests, keeping them
  // away from the root.
  EXPECT_GT(with_mesh.sibling_hits.hits, 0u);
  EXPECT_LT(with_mesh.root_requests, without.root_requests);
  EXPECT_EQ(with_mesh.faults.lost_requests, 0u);
}

TEST(HierarchyFaults, DegradedSiblingTimesOutWithBoundedRetry) {
  const trace::DenseTrace t = small_dense_trace();
  HierarchyConfig mesh = basic_config(t);
  mesh.sibling_cooperation = true;

  // All probes to edge 1 time out: its copies become unreachable to
  // siblings, each probe costing 1 + max_probe_retries attempts.
  FaultSchedule s = schedule_of({{1, FaultKind::kProbeDegrade, 1}});
  s.probe_timeout_rate = 1.0;
  s.max_probe_retries = 2;
  const HierarchyResult r = simulate_hierarchy(t, mesh, nullptr, &s);
  EXPECT_GT(r.faults.probe_timeouts, 0u);
  EXPECT_EQ(r.faults.probe_timeouts % 3, 0u);  // 3 attempts per probe

  // With the probe path restored at request 2, only the very first request
  // can still time out (its sibling caches are empty anyway), and the
  // sibling-hit stream matches the fault-free mesh exactly.
  s.events.push_back({2, FaultKind::kProbeRestore, 1});
  const HierarchyResult healed = simulate_hierarchy(t, mesh, nullptr, &s);
  const HierarchyResult baseline = simulate_hierarchy(t, mesh);
  EXPECT_LE(healed.faults.probe_timeouts, 3u);
  EXPECT_EQ(healed.sibling_hits.hits, baseline.sibling_hits.hits);
}

TEST(HierarchyFaults, InstrumentedRunMatchesUninstrumented) {
  const trace::DenseTrace t = small_dense_trace();
  HierarchyConfig config = basic_config(t);
  config.sibling_cooperation = true;
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, 0},
                                 {mid + 50, FaultKind::kRootOutage, 0},
                                 {mid + 200, FaultKind::kEdgeRecover, 0},
                                 {mid + 400, FaultKind::kRootRecover, 0}});

  const HierarchyResult plain = simulate_hierarchy(t, config, nullptr, &s);
  obs::RecordingSink sink(500);
  const HierarchyResult observed = simulate_hierarchy(t, config, &sink, &s);

  EXPECT_EQ(plain.offered.requests, observed.offered.requests);
  EXPECT_EQ(plain.offered.hits, observed.offered.hits);
  EXPECT_EQ(plain.edge_hits.hits, observed.edge_hits.hits);
  EXPECT_EQ(plain.root_hits.hits, observed.root_hits.hits);
  EXPECT_EQ(plain.faults.failovers, observed.faults.failovers);
  EXPECT_EQ(plain.faults.lost_requests, observed.faults.lost_requests);
  EXPECT_EQ(plain.faults.origin_fetches, observed.faults.origin_fetches);
  EXPECT_EQ(plain.faults.events_applied, observed.faults.events_applied);
}

TEST(HierarchyFaults, SinkRecordsAvailabilityLossesAndWarmup) {
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, 0},
                                 {mid, FaultKind::kRootOutage, 0},
                                 {mid + 500, FaultKind::kEdgeRecover, 0},
                                 {mid + 500, FaultKind::kRootRecover, 0}});

  obs::RecordingSink sink(400);
  const HierarchyResult r = simulate_hierarchy(t, config, &sink, &s);
  const obs::MetricsSeries& series = sink.series();

  // Mesh shape: 4 edges + root.
  EXPECT_EQ(series.fault_nodes, 5u);

  // Availability is defined in every window, dips below 1 during the double
  // fault, and is 1.0 before the first event.
  bool saw_degraded = false;
  for (const obs::WindowSample& w : series.windows) {
    const auto avail = w.availability(series.fault_nodes);
    ASSERT_TRUE(avail.has_value());
    EXPECT_GE(*avail, 0.0);
    EXPECT_LE(*avail, 1.0);
    if (*avail < 1.0) saw_degraded = true;
  }
  EXPECT_TRUE(saw_degraded);
  ASSERT_FALSE(series.windows.empty());
  EXPECT_DOUBLE_EQ(
      series.windows.front().availability(series.fault_nodes).value(), 1.0);

  // Roll-ups tie the series to the aggregate fault counters.
  std::uint64_t lost = 0, failovers = 0, events = 0;
  for (const obs::WindowSample& w : series.windows) {
    lost += w.overall.lost;
    failovers += w.failovers;
    events += w.fault_events;
  }
  EXPECT_EQ(lost, r.faults.lost_requests);
  EXPECT_EQ(failovers, r.faults.failovers);
  EXPECT_EQ(events, r.faults.events_applied);

  // Both recovered nodes produced a warm-up curve starting at the recovery
  // index, with hit rates that are proper fractions.
  ASSERT_EQ(series.warmup_curves.size(), 2u);
  bool saw_edge = false, saw_root = false;
  for (const obs::WarmupCurve& curve : series.warmup_curves) {
    if (curve.node == obs::kRootNode) saw_root = true;
    if (curve.node == 0) saw_edge = true;
    EXPECT_EQ(curve.recovered_at, mid + 500);
    EXPECT_FALSE(curve.windows.empty());
    for (const obs::WarmupWindow& w : curve.windows) {
      EXPECT_LE(w.overall.hits, w.overall.requests);
    }
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_root);
}

TEST(HierarchyFaults, WarmupCurveShowsColdStartTransient) {
  // The recovered node's first warm-up window must be colder than its last:
  // the cold-start transient the curves exist to show.
  const trace::DenseTrace t = small_dense_trace();
  const HierarchyConfig config = basic_config(t);
  const std::uint64_t early = t.total_requests() / 4;
  FaultSchedule s = schedule_of({{early, FaultKind::kEdgeCrash, 0},
                                 {early + 1, FaultKind::kEdgeRecover, 0}});
  obs::RecordingSink sink(200);
  simulate_hierarchy(t, config, &sink, &s);
  const auto& curves = sink.series().warmup_curves;
  ASSERT_EQ(curves.size(), 1u);
  ASSERT_GE(curves[0].windows.size(), 2u);
  // The first window after the cold restart is colder than the node's best
  // later window (the final window may be partial, so compare to the max).
  double best_later = 0.0;
  for (std::size_t i = 1; i < curves[0].windows.size(); ++i) {
    best_later = std::max(best_later, curves[0].windows[i].overall.hit_rate());
  }
  EXPECT_LT(curves[0].windows.front().overall.hit_rate(), best_later);
}

// ------------------------------------------------------------- partitioned

cache::PartitionedCache fresh_partitioned(const trace::Trace& t) {
  std::array<double, trace::kDocumentClassCount> weights{};
  weights.fill(1.0);
  return cache::PartitionedCache(cache::PartitionedCacheConfig::uniform_policy(
      t.overall_size_bytes() / 25, cache::policy_spec_from_name("LRU"),
      weights));
}

TEST(PartitionedFaults, DownPartitionLosesItsClassOnly) {
  const trace::Trace t = small_trace();
  const trace::DenseTrace dense = trace::densify(t);
  SimulatorOptions options;

  FaultSchedule s = schedule_of(
      {{1, FaultKind::kEdgeCrash,
        static_cast<std::uint32_t>(trace::DocumentClass::kImage)}});
  cache::PartitionedCache cache = fresh_partitioned(t);
  const SimResult r = simulate(dense, cache, options, nullptr, &s);

  const HitCounters& images = r.of(trace::DocumentClass::kImage);
  EXPECT_GT(images.requests, 0u);
  EXPECT_EQ(images.hits, 0u);
  EXPECT_EQ(r.faults.lost_requests, images.requests);
  EXPECT_EQ(r.faults.lost_bytes, images.requested_bytes);
  // A single box has no failover path.
  EXPECT_EQ(r.faults.failovers, 0u);
  // The other classes are unaffected.
  EXPECT_GT(r.of(trace::DocumentClass::kHtml).hits, 0u);
  // The per-class stream still partitions the overall stream.
  std::uint64_t class_requests = 0;
  for (const HitCounters& c : r.per_class) class_requests += c.requests;
  EXPECT_EQ(class_requests, r.overall.requests);
}

TEST(PartitionedFaults, RecoveredPartitionServesAgain) {
  const trace::Trace t = small_trace();
  const trace::DenseTrace dense = trace::densify(t);
  SimulatorOptions options;
  const std::uint32_t image =
      static_cast<std::uint32_t>(trace::DocumentClass::kImage);
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, image},
                                 {mid + 200, FaultKind::kEdgeRecover, image}});
  cache::PartitionedCache cache = fresh_partitioned(t);
  const SimResult r = simulate(dense, cache, options, nullptr, &s);

  EXPECT_GT(r.faults.lost_requests, 0u);
  // After recovery the partition produces hits again, so it cannot have
  // lost every image request past the crash.
  const HitCounters& images = r.of(trace::DocumentClass::kImage);
  EXPECT_GT(images.hits, 0u);
  EXPECT_LT(r.faults.lost_requests, images.requests);
}

TEST(PartitionedFaults, RootAndProbeEventsRejected) {
  const trace::Trace t = small_trace();
  const trace::DenseTrace dense = trace::densify(t);
  SimulatorOptions options;
  cache::PartitionedCache cache = fresh_partitioned(t);
  const FaultSchedule root = schedule_of({{10, FaultKind::kRootOutage, 0}});
  EXPECT_THROW(simulate(dense, cache, options, nullptr, &root),
               std::invalid_argument);
  const FaultSchedule probe =
      schedule_of({{10, FaultKind::kProbeDegrade, 0}});
  EXPECT_THROW(simulate(dense, cache, options, nullptr, &probe),
               std::invalid_argument);
}

TEST(PartitionedFaults, LostRequestsExcludedFromLatency) {
  // Lost requests fetch nothing, so they must not contribute origin-fetch
  // latency: losing a partition can only lower the total incurred latency.
  const trace::Trace t = small_trace();
  const trace::DenseTrace dense = trace::densify(t);
  SimulatorOptions options;
  cache::PartitionedCache plain_cache = fresh_partitioned(t);
  const SimResult plain = simulate(dense, plain_cache, options);

  FaultSchedule s = schedule_of(
      {{1, FaultKind::kEdgeCrash,
        static_cast<std::uint32_t>(trace::DocumentClass::kImage)}});
  cache::PartitionedCache faulted_cache = fresh_partitioned(t);
  const SimResult faulted =
      simulate(dense, faulted_cache, options, nullptr, &s);
  EXPECT_LT(faulted.miss_latency_ms, plain.miss_latency_ms);
  // The all-miss baseline shrinks by exactly the lost class too: a lost
  // request would not have been fetched even by a cacheless proxy.
  EXPECT_LT(faulted.all_miss_latency_ms, plain.all_miss_latency_ms);
}

TEST(PartitionedFaults, SinkSeriesConservesAndRollsUp) {
  const trace::Trace t = small_trace();
  const trace::DenseTrace dense = trace::densify(t);
  SimulatorOptions options;
  const std::uint32_t image =
      static_cast<std::uint32_t>(trace::DocumentClass::kImage);
  const std::uint64_t mid = t.total_requests() / 2;
  FaultSchedule s = schedule_of({{mid, FaultKind::kEdgeCrash, image},
                                 {mid + 300, FaultKind::kEdgeRecover, image}});

  obs::RecordingSink sink(500);
  cache::PartitionedCache cache = fresh_partitioned(t);
  const SimResult r = simulate(dense, cache, options, &sink, &s);

  const obs::WindowCounters totals = sink.series().totals();
  EXPECT_EQ(totals.requests, r.overall.requests);
  EXPECT_EQ(totals.hits, r.overall.hits);
  EXPECT_EQ(totals.lost, r.faults.lost_requests);
  EXPECT_EQ(sink.series().fault_nodes, trace::kDocumentClassCount);
  // hits + misses + lost == requests in every window.
  for (const obs::WindowSample& w : sink.series().windows) {
    EXPECT_LE(w.overall.hits + w.overall.lost, w.overall.requests);
  }
  // The recovered partition carries a warm-up curve.
  ASSERT_EQ(sink.series().warmup_curves.size(), 1u);
  EXPECT_EQ(sink.series().warmup_curves[0].node, image);
}

}  // namespace
}  // namespace webcache::sim
