// The dense-id fast path must be a pure representation change: replaying
// the same recorded trace through the array-backed containers has to yield
// byte-identical SimResults to the hash-backed path, for every policy, and
// the parallel sweep must be thread-count invariant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

void expect_identical_counters(const HitCounters& a, const HitCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

void expect_identical(const SimResult& sparse, const SimResult& dense,
                      const std::string& label) {
  EXPECT_EQ(sparse.policy_name, dense.policy_name) << label;
  EXPECT_EQ(sparse.capacity_bytes, dense.capacity_bytes) << label;
  expect_identical_counters(sparse.overall, dense.overall, label);
  for (std::size_t c = 0; c < sparse.per_class.size(); ++c) {
    expect_identical_counters(sparse.per_class[c], dense.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(sparse.warmup_requests, dense.warmup_requests) << label;
  EXPECT_EQ(sparse.measured_requests, dense.measured_requests) << label;
  EXPECT_EQ(sparse.evictions, dense.evictions) << label;
  EXPECT_EQ(sparse.bypasses, dense.bypasses) << label;
  // The latency sums accumulate the same doubles in the same order, so
  // exact equality is the correct expectation.
  EXPECT_EQ(sparse.miss_latency_ms, dense.miss_latency_ms) << label;
  EXPECT_EQ(sparse.all_miss_latency_ms, dense.all_miss_latency_ms) << label;
  EXPECT_EQ(sparse.modification_misses, dense.modification_misses) << label;
  EXPECT_EQ(sparse.interrupted_transfers, dense.interrupted_transfers) << label;
  ASSERT_EQ(sparse.occupancy_series.size(), dense.occupancy_series.size())
      << label;
  for (std::size_t i = 0; i < sparse.occupancy_series.size(); ++i) {
    const OccupancySample& sa = sparse.occupancy_series[i];
    const OccupancySample& sb = dense.occupancy_series[i];
    EXPECT_EQ(sa.request_index, sb.request_index) << label;
    EXPECT_EQ(sa.occupancy.total_objects, sb.occupancy.total_objects) << label;
    EXPECT_EQ(sa.occupancy.total_bytes, sb.occupancy.total_bytes) << label;
    EXPECT_EQ(sa.occupancy.objects, sb.occupancy.objects) << label;
    EXPECT_EQ(sa.occupancy.bytes, sb.occupancy.bytes) << label;
  }
}

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

// Every spelling the policy factory accepts.
const std::vector<std::string>& policies_under_test() {
  static const std::vector<std::string> names = {
      "LRU",          "LFU-DA",      "GDS(1)",  "GDS(packet)",
      "GDSF(1)",      "GD*(1)",      "GD*(packet)",
      "GD*C(packet)", "LRU-MIN",     "LRU-THOLD(300000)",
      "FIFO",         "SIZE",        "LFU",     "LRU-2",
      "GDS(latency)", "GDSF(packet)", "GDSF(latency)", "GD*(latency)",
      "GD*C(1)",      "RANDOM:seed=7",                "CLOCK",
      "DELAY-CLOCK:k=3",             "PROB-LRU:p=0.5,seed=9",
      "DELAY-LRU:k=2",               "BATCH-LRU:batch=8"};
  return names;
}

TEST(DenseEquivalence, SimResultsAreByteIdenticalAcrossPolicies) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;  // 4%

  SimulatorOptions options;
  options.occupancy_samples = 8;  // exercise the occupancy path too

  for (const std::string& name : policies_under_test()) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult a = simulate(sparse, capacity, spec, options);
    const SimResult b = simulate(dense, capacity, spec, options);
    expect_identical(a, b, name);
  }
}

TEST(DenseEquivalence, ModificationRulesMatch) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 50;

  for (const ModificationRule rule :
       {ModificationRule::kThreshold, ModificationRule::kAnyChange,
        ModificationRule::kNever}) {
    SimulatorOptions options;
    options.modification_rule = rule;
    const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(packet)");
    const SimResult a = simulate(sparse, capacity, spec, options);
    const SimResult b = simulate(dense, capacity, spec, options);
    expect_identical(a, b,
                     "rule " + std::to_string(static_cast<int>(rule)));
  }
}

TEST(DenseEquivalence, SweepIsThreadCountInvariant) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());

  SweepConfig config;
  config.cache_fractions = {0.01, 0.04, 0.16};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kPacket);

  config.threads = 1;
  const SweepResult serial = run_sweep(dense, config);
  config.threads = 8;
  const SweepResult parallel = run_sweep(dense, config);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  EXPECT_EQ(serial.overall_size_bytes, parallel.overall_size_bytes);
  for (std::size_t f = 0; f < serial.points.size(); ++f) {
    ASSERT_EQ(serial.points[f].results.size(),
              parallel.points[f].results.size());
    EXPECT_EQ(serial.points[f].capacity_bytes,
              parallel.points[f].capacity_bytes);
    for (std::size_t p = 0; p < serial.points[f].results.size(); ++p) {
      expect_identical(serial.points[f].results[p],
                       parallel.points[f].results[p],
                       "cell f" + std::to_string(f) + " p" + std::to_string(p));
    }
  }
}

TEST(DenseEquivalence, SparseAndDenseSweepAgree) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);

  SweepConfig config;
  config.cache_fractions = {0.02, 0.08};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kConstant);
  config.threads = 2;

  const SweepResult a = run_sweep(sparse, config);
  const SweepResult b = run_sweep(dense, config);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    for (std::size_t p = 0; p < a.points[f].results.size(); ++p) {
      expect_identical(a.points[f].results[p], b.points[f].results[p],
                       "cell f" + std::to_string(f) + " p" + std::to_string(p));
    }
  }
}

}  // namespace
}  // namespace webcache::sim
