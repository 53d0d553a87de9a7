#include "sim/hierarchy.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "synth/generator.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

trace::Trace small_sparse_trace() {
  synth::GeneratorOptions gen;
  gen.seed = 5;
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.005),
                               gen)
      .generate();
}

trace::DenseTrace small_trace() {
  return trace::densify(small_sparse_trace(), trace::ClientColumn::kLoad);
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

TEST(Hierarchy, RejectsInvalidConfig) {
  // The simulator options go through the same validator as simulate(), so
  // the hierarchy rejects exactly what the single cache rejects.
  const trace::DenseTrace t = small_trace();
  HierarchyConfig config = basic_config(t);
  config.edge_count = 0;
  EXPECT_THROW(simulate_hierarchy(t, config), std::invalid_argument);
  config = basic_config(t);
  config.simulator.warmup_fraction = 1.5;
  EXPECT_THROW(simulate_hierarchy(t, config), std::invalid_argument);
  for (const double threshold : {0.0, 1.0}) {
    config = basic_config(t);
    config.simulator.modification_threshold = threshold;
    EXPECT_THROW(simulate_hierarchy(t, config), std::invalid_argument)
        << "threshold " << threshold;
  }
}

TEST(HierarchyDenseEquivalence, DenseOverloadValidatesConfig) {
  // Every instantiation — plain, instrumented, fault-aware and both —
  // validates before replaying, so none of them runs a bad config.
  const trace::DenseTrace t = small_trace();
  const FaultSchedule no_faults;
  const auto expect_every_overload_throws = [&](const HierarchyConfig& c,
                                                const std::string& what) {
    obs::RecordingSink sink(500);
    obs::RecordingSink fault_sink(500);
    EXPECT_THROW(simulate_hierarchy(t, c), std::invalid_argument) << what;
    EXPECT_THROW(simulate_hierarchy(t, c, &sink), std::invalid_argument)
        << what;
    EXPECT_THROW(simulate_hierarchy(t, c, nullptr, &no_faults),
                 std::invalid_argument)
        << what;
    EXPECT_THROW(simulate_hierarchy(t, c, &fault_sink, &no_faults),
                 std::invalid_argument)
        << what;
  };
  HierarchyConfig config = basic_config(t);
  config.edge_count = 0;
  expect_every_overload_throws(config, "edge_count 0");
  config = basic_config(t);
  config.simulator.warmup_fraction = 1.5;
  expect_every_overload_throws(config, "warmup 1.5");
}

TEST(Hierarchy, DenseTraceRoundTripsForClientAttachment) {
  // densify() renumbers documents but must keep the client ids in its
  // client column and the original-id table exact, so a dense replay
  // attaches every request to the same edge and results can be mapped
  // back to URL hashes.
  const trace::Trace sparse = small_sparse_trace();
  const trace::DenseTrace dense =
      trace::densify(sparse, trace::ClientColumn::kLoad);

  ASSERT_EQ(sparse.requests.size(), dense.records.size());
  ASSERT_EQ(sparse.requests.size(), dense.clients.size());
  for (std::size_t i = 0; i < sparse.requests.size(); ++i) {
    const trace::Request& s = sparse.requests[i];
    ASSERT_EQ(s.client, dense.clients[i]) << "request " << i;
    ASSERT_EQ(s.document, dense.original_id(dense.records[i].document))
        << "request " << i;
  }
}

TEST(Hierarchy, RejectsATraceWithoutItsClientColumn) {
  const trace::DenseTrace t = trace::densify(small_sparse_trace());
  EXPECT_THROW(simulate_hierarchy(t, basic_config(t)), std::invalid_argument);
}

TEST(Hierarchy, ClientsStickToTheirEdge) {
  // All requests of one client must land on one edge (synthetic traces
  // carry client ids).
  for (std::uint32_t client = 1; client < 200; ++client) {
    const auto e = edge_for_client(client, 4);
    ASSERT_LT(e, 4u);
    EXPECT_EQ(e, edge_for_client(client, 4));
  }
}

TEST(Hierarchy, ClientRoutingChangesEdgeLoads) {
  // Zipf-skewed clients: with client routing, the edge serving the heavy
  // browsers processes visibly more requests than under uniform mixing.
  const trace::DenseTrace t = small_trace();
  std::array<std::uint64_t, 4> per_edge{};
  std::uint64_t index = 0;
  for (const std::uint32_t client : t.clients) {
    ++index;
    ASSERT_NE(client, 0u);
    ++per_edge[edge_for_client(client, 4)];
  }
  std::uint64_t max_load = 0, min_load = ~0ULL;
  for (const auto c : per_edge) {
    max_load = std::max(max_load, c);
    min_load = std::min(min_load, c);
  }
  EXPECT_GT(max_load, min_load);  // skew visible
  EXPECT_GT(min_load, 0u);        // but every edge sees traffic
}

TEST(Hierarchy, EdgeAssignmentDeterministicAndBalanced) {
  std::array<std::uint64_t, 4> counts{};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const auto e = edge_for_request(i, 4);
    ASSERT_LT(e, 4u);
    EXPECT_EQ(e, edge_for_request(i, 4));
    ++counts[e];
  }
  for (const auto c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 25000.0, 1000.0);
  }
}

TEST(Hierarchy, AccountingIsClosed) {
  const trace::DenseTrace t = small_trace();
  const HierarchyResult r = simulate_hierarchy(t, basic_config(t));
  // Every measured request is offered; edge misses = root requests.
  EXPECT_EQ(r.offered.requests, r.edge_hits.requests);
  EXPECT_EQ(r.root_requests, r.offered.requests - r.edge_hits.hits);
  EXPECT_EQ(r.root_hits.requests, r.root_requests);
  // Combined = edge + root, and all rates are proper fractions.
  EXPECT_NEAR(r.combined_hit_rate(),
              r.edge_hit_rate() +
                  static_cast<double>(r.root_hits.hits) /
                      static_cast<double>(r.offered.requests),
              1e-12);
  EXPECT_LE(r.combined_hit_rate(), 1.0);
  EXPECT_LE(r.combined_byte_hit_rate(), 1.0);
  EXPECT_NEAR(r.origin_traffic_fraction(), 1.0 - r.combined_byte_hit_rate(),
              1e-12);
  // Per-class counters partition the offered stream.
  std::uint64_t edge_class_requests = 0;
  for (const auto& c : r.edge_per_class) edge_class_requests += c.requests;
  EXPECT_EQ(edge_class_requests, r.offered.requests);
}

TEST(Hierarchy, RootSeesFilteredStream) {
  // The root's hit rate on forwarded misses is lower than a same-size
  // single cache's hit rate on the raw stream: the edges strip the easy
  // re-references (the filtering effect of cache hierarchies).
  const trace::DenseTrace t = small_trace();
  const HierarchyConfig config = basic_config(t);
  const HierarchyResult hier = simulate_hierarchy(t, config);
  const SimResult solo =
      simulate(t, config.root_capacity_bytes, config.root_policy, {});
  EXPECT_LT(hier.root_hit_rate(), solo.overall.hit_rate());
  EXPECT_GT(hier.root_requests, 0u);
}

TEST(Hierarchy, CombinedBeatsEdgesAlone) {
  const trace::DenseTrace t = small_trace();
  const HierarchyConfig config = basic_config(t);
  const HierarchyResult r = simulate_hierarchy(t, config);
  EXPECT_GT(r.combined_hit_rate(), r.edge_hit_rate());
  EXPECT_GT(r.combined_byte_hit_rate(), r.edge_byte_hit_rate());
}

TEST(Hierarchy, MoreEdgesDiluteEdgeLocality) {
  // Splitting the same total edge capacity across more proxies replicates
  // hot documents and fragments the working set: the edge hit rate drops.
  const trace::DenseTrace t = small_trace();
  HierarchyConfig few = basic_config(t);
  few.edge_count = 2;
  few.edge_capacity_bytes = t.overall_size_bytes() / 50;  // total /25
  HierarchyConfig many = basic_config(t);
  many.edge_count = 16;
  many.edge_capacity_bytes = t.overall_size_bytes() / 400;  // same total
  const HierarchyResult few_r = simulate_hierarchy(t, few);
  const HierarchyResult many_r = simulate_hierarchy(t, many);
  EXPECT_GT(few_r.edge_hit_rate(), many_r.edge_hit_rate());
}

TEST(Hierarchy, SiblingCooperationReducesOriginTraffic) {
  // The DFN-mesh configuration: an edge miss served by a sibling neither
  // reaches the root nor the origin, so combined hit rate rises and origin
  // traffic falls (or at worst stays equal) versus the strict hierarchy.
  const trace::DenseTrace t = small_trace();
  HierarchyConfig solo = basic_config(t);
  HierarchyConfig mesh = basic_config(t);
  mesh.sibling_cooperation = true;
  const HierarchyResult solo_r = simulate_hierarchy(t, solo);
  const HierarchyResult mesh_r = simulate_hierarchy(t, mesh);
  EXPECT_GT(mesh_r.sibling_hits.hits, 0u);
  EXPECT_EQ(solo_r.sibling_hits.hits, 0u);
  EXPECT_LT(mesh_r.root_requests, solo_r.root_requests);
  EXPECT_GE(mesh_r.edge_hit_rate(), solo_r.edge_hit_rate());
}

TEST(Hierarchy, SiblingAccountingClosed) {
  const trace::DenseTrace t = small_trace();
  HierarchyConfig config = basic_config(t);
  config.sibling_cooperation = true;
  const HierarchyResult r = simulate_hierarchy(t, config);
  // offered = own-edge answered + sibling answered + forwarded to root.
  EXPECT_EQ(r.offered.requests,
            r.edge_hits.hits + r.sibling_hits.hits + r.root_requests);
  EXPECT_LE(r.combined_hit_rate(), 1.0);
}

TEST(Hierarchy, ReplicationTogglesLocalCopies) {
  // With replication, a second request from the same client after a
  // sibling hit is a local edge hit; without it, it's a sibling hit again.
  const trace::DenseTrace t = small_trace();
  HierarchyConfig with = basic_config(t);
  with.sibling_cooperation = true;
  with.replicate_on_sibling_hit = true;
  HierarchyConfig without = with;
  without.replicate_on_sibling_hit = false;
  const HierarchyResult with_r = simulate_hierarchy(t, with);
  const HierarchyResult without_r = simulate_hierarchy(t, without);
  EXPECT_GT(without_r.sibling_hits.hits, with_r.sibling_hits.hits);
}

TEST(Hierarchy, Deterministic) {
  const trace::DenseTrace t = small_trace();
  const HierarchyConfig config = basic_config(t);
  const HierarchyResult a = simulate_hierarchy(t, config);
  const HierarchyResult b = simulate_hierarchy(t, config);
  EXPECT_EQ(a.edge_hits.hits, b.edge_hits.hits);
  EXPECT_EQ(a.root_hits.hit_bytes, b.root_hits.hit_bytes);
  EXPECT_EQ(a.edge_evictions, b.edge_evictions);
}

TEST(Hierarchy, WarmupExcluded) {
  const trace::DenseTrace t = small_trace();
  HierarchyConfig config = basic_config(t);
  config.simulator.warmup_fraction = 0.5;
  const HierarchyResult r = simulate_hierarchy(t, config);
  EXPECT_EQ(r.offered.requests, t.total_requests() -
                                    static_cast<std::uint64_t>(
                                        t.total_requests() * 0.5));
}

TEST(Hierarchy, MeshWindowOccupancyPerClassSumsToTotals) {
  // The mesh snapshot sums every edge and the root, class by class.
  const trace::DenseTrace t = small_trace();
  HierarchyConfig config = basic_config(t);
  config.sibling_cooperation = true;
  obs::RecordingSink sink(t.total_requests() / 20);
  simulate_hierarchy(t, config, &sink);
  ASSERT_GE(sink.series().windows.size(), 20u);
  for (const obs::WindowSample& w : sink.series().windows) {
    const cache::Occupancy& occ = w.state.occupancy;
    EXPECT_EQ(std::accumulate(occ.objects.begin(), occ.objects.end(),
                              std::uint64_t{0}),
              occ.total_objects)
        << w.last_request;
    EXPECT_EQ(
        std::accumulate(occ.bytes.begin(), occ.bytes.end(), std::uint64_t{0}),
        occ.total_bytes)
        << w.last_request;
    EXPECT_GT(occ.total_objects, 0u) << w.last_request;
  }
}

// ---- HierarchyReference: each level against the single-cache simulator ----
//
// A one-edge mesh without siblings shows the edge the client stream
// exactly as simulate() shows its one cache; a zero-capacity edge holds
// nothing, so every request reaches the root, again exactly as simulate()
// sees it. Both levels must therefore reproduce the single-cache replay
// (a separate loop with no mesh) counter for counter, across policies,
// cache sizes and modification rules.

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

constexpr const char* kReferencePolicies[] = {
    "LRU",         "LFU-DA", "GDS(1)", "GD*(1)",  "GDS(packet)",
    "GD*(packet)", "FIFO",   "SIZE",   "LRU-MIN", "LRU-THOLD(4096)",
    "GDSF(1)"};
constexpr double kReferenceFractions[] = {0.005, 0.04, 0.4};
constexpr ModificationRule kReferenceRules[] = {ModificationRule::kThreshold,
                                                ModificationRule::kAnyChange,
                                                ModificationRule::kNever};

const trace::Trace& golden_trace() {
  static const trace::Trace t = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  return t;
}

void expect_counters(const HitCounters& level, const HitCounters& single,
                     const std::string& label) {
  EXPECT_EQ(level.requests, single.requests) << label;
  EXPECT_EQ(level.requested_bytes, single.requested_bytes) << label;
  EXPECT_EQ(level.hits, single.hits) << label;
  EXPECT_EQ(level.hit_bytes, single.hit_bytes) << label;
}

// A one-edge mesh without siblings, both levels running `spec`.
HierarchyConfig one_edge(std::uint64_t edge_capacity,
                         std::uint64_t root_capacity,
                         const cache::PolicySpec& spec,
                         const SimulatorOptions& options) {
  HierarchyConfig config;
  config.edge_count = 1;
  config.edge_capacity_bytes = edge_capacity;
  config.edge_policy = spec;
  config.root_capacity_bytes = root_capacity;
  config.root_policy = spec;
  config.simulator = options;
  return config;
}

// Runs fn(label, capacity, spec, options, single) for every reference cell,
// where `single` is the single-cache result at that capacity.
template <typename Fn>
void for_each_reference_cell(Fn&& fn) {
  const trace::Trace& t = golden_trace();
  const std::uint64_t overall = t.overall_size_bytes();
  for (const std::string name : kReferencePolicies) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    for (const double fraction : kReferenceFractions) {
      const auto capacity = static_cast<std::uint64_t>(
          static_cast<double>(overall) * fraction);
      for (const ModificationRule rule : kReferenceRules) {
        SimulatorOptions options;
        options.modification_rule = rule;
        const SimResult single = simulate(t, capacity, spec, options);
        fn(name + " at " + std::to_string(fraction) + " rule " +
               std::to_string(static_cast<int>(rule)),
           capacity, spec, options, single);
      }
    }
  }
}

TEST(HierarchyReference, EdgeMatchesSingleCacheSimulate) {
  const trace::DenseTrace dense =
      trace::densify(golden_trace(), trace::ClientColumn::kLoad);
  for_each_reference_cell([&](const std::string& label,
                              std::uint64_t capacity,
                              const cache::PolicySpec& spec,
                              const SimulatorOptions& options,
                              const SimResult& single) {
    const HierarchyResult r =
        simulate_hierarchy(dense, one_edge(capacity, capacity, spec, options));

    expect_counters(r.edge_hits, single.overall, label + " edge");
    for (std::size_t c = 0; c < single.per_class.size(); ++c) {
      expect_counters(r.edge_per_class[c], single.per_class[c],
                      label + " edge class " + std::to_string(c));
    }
    EXPECT_EQ(r.edge_evictions, single.evictions) << label;
    EXPECT_EQ(r.miss_latency_ms, single.miss_latency_ms) << label;
    EXPECT_EQ(r.all_miss_latency_ms, single.all_miss_latency_ms) << label;
  });
}

TEST(HierarchyReference, RootMatchesSingleCacheSimulate) {
  const trace::DenseTrace dense =
      trace::densify(golden_trace(), trace::ClientColumn::kLoad);
  for_each_reference_cell([&](const std::string& label,
                              std::uint64_t capacity,
                              const cache::PolicySpec& spec,
                              const SimulatorOptions& options,
                              const SimResult& single) {
    const HierarchyResult r =
        simulate_hierarchy(dense, one_edge(0, capacity, spec, options));

    EXPECT_EQ(r.edge_hits.hits, 0u) << label;
    EXPECT_EQ(r.root_requests, single.overall.requests) << label;
    expect_counters(r.root_hits, single.overall, label + " root");
    for (std::size_t c = 0; c < single.per_class.size(); ++c) {
      expect_counters(r.root_per_class[c], single.per_class[c],
                      label + " root class " + std::to_string(c));
    }
    EXPECT_EQ(r.root_evictions, single.evictions) << label;
  });
}

}  // namespace
}  // namespace webcache::sim
