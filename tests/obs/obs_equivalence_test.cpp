// The observability layer must be a pure observer: attaching a
// RecordingSink to a replay cannot change a single counter. The
// uninstrumented entry points instantiate the loop with NullSink — so this
// suite replays every factory policy (plus the clairvoyant OPT bound)
// uninstrumented and instrumented, over both the map-backed and the
// dense-id paths, and requires byte-identical SimResults. The hierarchy
// gets the same check over its own composite loop.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "cache/opt.hpp"
#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::obs {
namespace {

void expect_identical_counters(const sim::HitCounters& a,
                               const sim::HitCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

void expect_identical(const sim::SimResult& plain,
                      const sim::SimResult& instrumented,
                      const std::string& label) {
  EXPECT_EQ(plain.policy_name, instrumented.policy_name) << label;
  expect_identical_counters(plain.overall, instrumented.overall, label);
  for (std::size_t c = 0; c < plain.per_class.size(); ++c) {
    expect_identical_counters(plain.per_class[c], instrumented.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(plain.warmup_requests, instrumented.warmup_requests) << label;
  EXPECT_EQ(plain.measured_requests, instrumented.measured_requests) << label;
  EXPECT_EQ(plain.evictions, instrumented.evictions) << label;
  EXPECT_EQ(plain.bypasses, instrumented.bypasses) << label;
  EXPECT_EQ(plain.modification_misses, instrumented.modification_misses)
      << label;
  EXPECT_EQ(plain.interrupted_transfers, instrumented.interrupted_transfers)
      << label;
  // Floating-point sums accumulate in the same order, so exact equality.
  EXPECT_EQ(plain.miss_latency_ms, instrumented.miss_latency_ms) << label;
  EXPECT_EQ(plain.all_miss_latency_ms, instrumented.all_miss_latency_ms)
      << label;
}

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

// The full factory surface, as in the policy property suite.
const std::vector<std::string>& all_policy_names() {
  static const std::vector<std::string> names = {
      "LRU",          "FIFO",          "SIZE",
      "LFU",          "LFU-DA",        "GDS(1)",
      "GDS(packet)",  "GDS(latency)",  "GDSF(1)",
      "GDSF(packet)", "GD*(1)",        "GD*(packet)",
      "GD*(latency)", "LRU-MIN",       "LRU-THOLD(300)",
      "LRU-2",        "GD*C(1)",       "GD*C(packet)",
      "RANDOM",       "CLOCK",         "DELAY-CLOCK:k=3",
      "PROB-LRU:p=0.25", "DELAY-LRU:k=8", "BATCH-LRU:batch=16"};
  return names;
}

class ObsEquivalenceTest : public testing::TestWithParam<std::string> {};

TEST_P(ObsEquivalenceTest, RecordingSinkIsAPureObserver) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name(GetParam());
  const sim::SimulatorOptions options;

  RecordingSink sink(500);
  const sim::SimResult a = sim::simulate(sparse, capacity, spec, options);
  const sim::SimResult b =
      sim::simulate(sparse, capacity, spec, options, sink);
  expect_identical(a, b, GetParam() + " sparse");

  const sim::SimResult c = sim::simulate(dense, capacity, spec, options);
  const sim::SimResult d =
      sim::simulate(dense, capacity, spec, options, sink);
  expect_identical(c, d, GetParam() + " dense");
  expect_identical(a, d, GetParam() + " sparse vs dense instrumented");
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ObsEquivalenceTest,
                         testing::ValuesIn(all_policy_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ObsEquivalence, OptBoundIsUnchangedByInstrumentation) {
  // OPT needs out-of-band state (the future-reference oracle), so it runs
  // through the frontend overloads rather than a PolicySpec.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;
  const sim::SimulatorOptions options;

  cache::SingleCacheFrontend plain(
      capacity, std::make_unique<cache::OptPolicy>(sparse.requests));
  const sim::SimResult a = sim::simulate(sparse, plain, options);

  RecordingSink sink(500);
  cache::SingleCacheFrontend instrumented(
      capacity, std::make_unique<cache::OptPolicy>(sparse.requests));
  const sim::SimResult b = sim::simulate(sparse, instrumented, options, sink);
  expect_identical(a, b, "OPT sparse");

  cache::SingleCacheFrontend dense_fe(
      capacity, std::make_unique<cache::OptPolicy>(dense.trace.requests));
  const sim::SimResult c = sim::simulate(dense, dense_fe, options, sink);
  expect_identical(a, c, "OPT dense instrumented");
}

TEST(ObsEquivalence, HierarchyIsUnchangedByInstrumentation) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());

  sim::HierarchyConfig config;
  config.edge_count = 4;
  config.edge_policy = cache::policy_spec_from_name("GD*(1)");
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.root_capacity_bytes = dense.overall_size_bytes() / 25;
  config.edge_capacity_bytes = config.root_capacity_bytes / 4;
  config.sibling_cooperation = true;

  const sim::HierarchyResult a = sim::simulate_hierarchy(dense, config);
  RecordingSink sink(500);
  const sim::HierarchyResult b = sim::simulate_hierarchy(dense, config, sink);

  expect_identical_counters(a.offered, b.offered, "offered");
  expect_identical_counters(a.edge_hits, b.edge_hits, "edge");
  expect_identical_counters(a.sibling_hits, b.sibling_hits, "sibling");
  expect_identical_counters(a.root_hits, b.root_hits, "root");
  EXPECT_EQ(a.root_requests, b.root_requests);
  EXPECT_EQ(a.edge_evictions, b.edge_evictions);
  EXPECT_EQ(a.root_evictions, b.root_evictions);
}

}  // namespace
}  // namespace webcache::obs
