// Differential equivalence for the one-pass LRU engine: every SimResult
// StackSweep produces must equal per-capacity sim::simulate() with an LRU
// policy bit-for-bit — overall and per-class, hit and byte-hit counters,
// evictions, modification misses, even the latency doubles (same additions
// in the same order) — and the textbook oracle's LRU, on the golden fixture
// and on fuzzed synthetic mixes across all modification rules. The engine
// is the benchmark harness's independent LRU reference; no sweep runs it.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "support/oracle.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

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

// The one-pass results against the textbook oracle's LRU and against the
// per-capacity dense simulate().
void expect_matches_simulate(const trace::Trace& trace,
                             const std::vector<std::uint64_t>& capacities,
                             const SimulatorOptions& options,
                             const std::string& label) {
  const trace::DenseTrace dense = trace::densify(trace);
  const std::vector<SimResult> one_pass =
      StackSweep(capacities, options).run(dense);
  ASSERT_EQ(one_pass.size(), capacities.size());

  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const std::string cell =
        label + " capacity " + std::to_string(capacities[i]);
    expect_same_result(oracle::replay(trace, capacities[i], lru, options),
                       one_pass[i], cell + " (oracle)");
    expect_same_result(simulate(dense, capacities[i], lru, options),
                       one_pass[i], cell + " (simulate)");
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

}  // namespace
}  // namespace webcache::sim
