// Differential equivalence for the one-pass LRU engine: every SimResult
// StackSweep produces must equal per-capacity sim::simulate() with an LRU
// policy bit-for-bit — overall and per-class, hit and byte-hit counters,
// evictions, modification misses, even the latency doubles (same additions
// in the same order) — sparse and dense, on the golden fixture and on
// fuzzed synthetic mixes across all modification rules. The run_sweep
// integration is covered too: one-pass on/off/auto yield identical
// SweepResults with mixed policy sets, including capacities that must fall
// back to the grid.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
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

void expect_identical(const SimResult& expected, const SimResult& actual,
                      const std::string& label) {
  EXPECT_EQ(expected.policy_name, actual.policy_name) << label;
  EXPECT_EQ(expected.capacity_bytes, actual.capacity_bytes) << label;
  expect_identical_counters(expected.overall, actual.overall, label);
  for (std::size_t c = 0; c < expected.per_class.size(); ++c) {
    expect_identical_counters(expected.per_class[c], actual.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(expected.warmup_requests, actual.warmup_requests) << label;
  EXPECT_EQ(expected.measured_requests, actual.measured_requests) << label;
  EXPECT_EQ(expected.evictions, actual.evictions) << label;
  EXPECT_EQ(expected.bypasses, actual.bypasses) << label;
  // Same doubles added in the same order: exact equality is correct.
  EXPECT_EQ(expected.miss_latency_ms, actual.miss_latency_ms) << label;
  EXPECT_EQ(expected.all_miss_latency_ms, actual.all_miss_latency_ms) << label;
  EXPECT_EQ(expected.modification_misses, actual.modification_misses) << label;
  EXPECT_EQ(expected.interrupted_transfers, actual.interrupted_transfers)
      << label;
}

trace::Trace recorded_trace(std::uint64_t seed = 42) {
  synth::GeneratorOptions options;
  options.seed = seed;
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002),
                                  options);
  return generator.generate();
}

/// The paper's capacity ladder for this trace, restricted to capacities the
/// one-pass engine accepts (>= largest transfer size).
std::vector<std::uint64_t> eligible_ladder(const trace::Trace& trace) {
  const std::uint64_t largest = StackSweep::max_transfer_size(trace);
  std::vector<std::uint64_t> capacities;
  for (const double fraction :
       {0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.40}) {
    const auto capacity = static_cast<std::uint64_t>(
        static_cast<double>(trace.overall_size_bytes()) * fraction);
    if (capacity >= largest) capacities.push_back(capacity);
  }
  return capacities;
}

void expect_matches_simulate(const trace::Trace& sparse,
                             const std::vector<std::uint64_t>& capacities,
                             const SimulatorOptions& options,
                             const std::string& label) {
  const trace::DenseTrace dense = trace::densify(sparse);
  const StackSweep sweep(capacities, options);
  const std::vector<SimResult> one_pass_sparse = sweep.run(sparse);
  const std::vector<SimResult> one_pass_dense = sweep.run(dense);
  ASSERT_EQ(one_pass_sparse.size(), capacities.size());
  ASSERT_EQ(one_pass_dense.size(), capacities.size());

  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const SimResult reference = simulate(sparse, capacities[i], lru, options);
    const std::string cell =
        label + " capacity " + std::to_string(capacities[i]);
    expect_identical(reference, one_pass_sparse[i], cell + " (sparse)");
    expect_identical(reference, one_pass_dense[i], cell + " (dense)");
  }
}

TEST(StackSweep, MatchesSimulateAcrossTheLadder) {
  const trace::Trace trace = recorded_trace();
  const std::vector<std::uint64_t> capacities = eligible_ladder(trace);
  ASSERT_FALSE(capacities.empty());
  expect_matches_simulate(trace, capacities, SimulatorOptions{}, "default");
}

TEST(StackSweep, MatchesSimulateUnderEveryModificationRule) {
  const trace::Trace trace = recorded_trace();
  const std::vector<std::uint64_t> capacities = eligible_ladder(trace);
  for (const ModificationRule rule :
       {ModificationRule::kThreshold, ModificationRule::kAnyChange,
        ModificationRule::kNever}) {
    SimulatorOptions options;
    options.modification_rule = rule;
    expect_matches_simulate(trace, capacities, options,
                            "rule " + std::to_string(static_cast<int>(rule)));
  }
}

TEST(StackSweep, MatchesSimulateOnFuzzedMixes) {
  // Fuzzed seeds shuffle the popularity draws, size distributions, and the
  // modification/interruption injections — fresh divergence patterns each
  // time (a hit after an interrupted transfer leaves a stale stored size in
  // exactly the capacities where it hit).
  for (const std::uint64_t seed : {7u, 1234u, 999983u}) {
    const trace::Trace trace = recorded_trace(seed);
    const std::vector<std::uint64_t> capacities = eligible_ladder(trace);
    ASSERT_FALSE(capacities.empty()) << "seed " << seed;
    SimulatorOptions options;
    options.warmup_fraction = 0.25;  // off-default warm-up boundary
    expect_matches_simulate(trace, capacities, options,
                            "seed " + std::to_string(seed));
  }
}

TEST(StackSweep, MatchesSimulateAtEveryGoldenCapacity) {
  // The checked-in golden fixture (tests/integration/golden_trace_test.cpp)
  // replayed at every paper-ladder capacity the engine accepts.
  const trace::Trace trace = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  ASSERT_EQ(trace.total_requests(), 6718u);
  const std::vector<std::uint64_t> capacities = eligible_ladder(trace);
  ASSERT_FALSE(capacities.empty());
  expect_matches_simulate(trace, capacities, SimulatorOptions{}, "golden");
}

TEST(StackSweep, RejectsCapacityBelowLargestTransfer) {
  const trace::Trace trace = recorded_trace();
  const std::uint64_t largest = StackSweep::max_transfer_size(trace);
  ASSERT_GT(largest, 1u);
  const StackSweep sweep({largest - 1}, SimulatorOptions{});
  EXPECT_THROW(sweep.run(trace), std::invalid_argument);
  EXPECT_THROW(sweep.run(trace::densify(trace)), std::invalid_argument);
}

TEST(StackSweep, RejectsInvalidOptions) {
  EXPECT_THROW(StackSweep({}, SimulatorOptions{}), std::invalid_argument);
  SimulatorOptions warmup;
  warmup.warmup_fraction = 1.0;
  EXPECT_THROW(StackSweep({1 << 20}, warmup), std::invalid_argument);
  for (const double threshold : {0.0, 1.0}) {
    SimulatorOptions mod;
    mod.modification_threshold = threshold;
    EXPECT_THROW(StackSweep({1 << 20}, mod), std::invalid_argument)
        << threshold;
  }
}

// ---- run_sweep integration ----

void expect_identical_sweeps(const SweepResult& a, const SweepResult& b,
                             const std::string& label) {
  ASSERT_EQ(a.points.size(), b.points.size()) << label;
  EXPECT_EQ(a.overall_size_bytes, b.overall_size_bytes) << label;
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    ASSERT_EQ(a.points[f].results.size(), b.points[f].results.size()) << label;
    EXPECT_EQ(a.points[f].capacity_bytes, b.points[f].capacity_bytes) << label;
    for (std::size_t p = 0; p < a.points[f].results.size(); ++p) {
      expect_identical(a.points[f].results[p], b.points[f].results[p],
                       label + " cell f" + std::to_string(f) + " p" +
                           std::to_string(p));
    }
  }
}

TEST(StackSweepIntegration, OnePassModesAgreeOnMixedPolicyGrids) {
  // The default ladder's smallest fractions sit below the largest transfer
  // size on this trace or not — either way the one-pass run must partition
  // correctly and agree with the all-grid run, for LRU and non-LRU columns.
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);

  SweepConfig config;
  config.policies = cache::paper_policy_set(cache::CostModelKind::kPacket);
  config.threads = 2;

  config.one_pass = OnePassMode::kOff;
  const SweepResult grid = run_sweep(sparse, config);
  config.one_pass = OnePassMode::kAuto;
  const SweepResult auto_sparse = run_sweep(sparse, config);
  const SweepResult auto_dense = run_sweep(dense, config);

  expect_identical_sweeps(grid, auto_sparse, "auto sparse");
  expect_identical_sweeps(grid, auto_dense, "auto dense");
}

}  // namespace
}  // namespace webcache::sim
