// The observability layer must be a pure observer: attaching a
// RecordingSink to a replay cannot change a single counter. The
// uninstrumented entry points instantiate the loop with NullSink — so this
// suite replays every factory policy (plus the clairvoyant OPT bound)
// uninstrumented and instrumented and requires byte-identical SimResults;
// for the paper policies the instrumented run must also equal the
// textbook oracle (tests/support/oracle.hpp). The hierarchy gets the same
// check over its own composite loop.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/greedy_dual.hpp"
#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/simulator.hpp"
#include "support/oracle.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::obs {
namespace {

using sim::expect_same_counters;
using sim::expect_same_result;

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
  const trace::Trace trace = recorded_trace();
  const trace::DenseTrace dense = trace::densify(trace);
  const std::uint64_t capacity = trace.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name(GetParam());
  const sim::SimulatorOptions options;

  RecordingSink sink(500);
  const sim::SimResult plain = sim::simulate(dense, capacity, spec, options);
  const sim::SimResult instrumented =
      sim::simulate(dense, capacity, spec, options, &sink);
  expect_same_result(plain, instrumented, GetParam());
  if (oracle::supports(spec)) {
    expect_same_result(oracle::replay(trace, capacity, spec, options),
                       instrumented, GetParam() + " vs oracle");
  }
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
  // in a caller-built Cache rather than from a PolicySpec.
  const trace::DenseTrace dense = trace::densify(recorded_trace());
  const std::uint64_t capacity = dense.overall_size_bytes() / 25;
  const sim::SimulatorOptions options;

  cache::Cache plain(capacity, std::make_unique<cache::OptPolicy>(dense));
  const sim::SimResult a = sim::simulate(dense, plain, options);

  RecordingSink sink(500);
  cache::Cache instrumented(capacity,
                            std::make_unique<cache::OptPolicy>(dense));
  const sim::SimResult b = sim::simulate(dense, instrumented, options, &sink);
  expect_same_result(a, b, "OPT");
}

TEST(ObsEquivalence, HierarchyIsUnchangedByInstrumentation) {
  const trace::DenseTrace dense =
      trace::densify(recorded_trace(), trace::ClientColumn::kLoad);

  sim::HierarchyConfig config;
  config.edge_count = 4;
  config.edge_policy = cache::policy_spec_from_name("GD*(1)");
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.root_capacity_bytes = dense.overall_size_bytes() / 25;
  config.edge_capacity_bytes = config.root_capacity_bytes / 4;
  config.sibling_cooperation = true;

  const sim::HierarchyResult a = sim::simulate_hierarchy(dense, config);
  RecordingSink sink(500);
  const sim::HierarchyResult b = sim::simulate_hierarchy(dense, config, &sink);

  expect_same_counters(a.offered, b.offered, "offered");
  expect_same_counters(a.edge_hits, b.edge_hits, "edge");
  expect_same_counters(a.sibling_hits, b.sibling_hits, "sibling");
  expect_same_counters(a.root_hits, b.root_hits, "root");
  EXPECT_EQ(a.root_requests, b.root_requests);
  EXPECT_EQ(a.edge_evictions, b.edge_evictions);
  EXPECT_EQ(a.root_evictions, b.root_evictions);
}

}  // namespace
}  // namespace webcache::obs
