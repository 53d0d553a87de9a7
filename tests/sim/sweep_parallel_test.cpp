#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/sweep.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

trace::Trace small_trace() {
  synth::GeneratorOptions opts;
  opts.seed = 5;
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002),
                               opts)
      .generate();
}

SweepConfig grid_config() {
  SweepConfig config;
  config.cache_fractions = {0.01, 0.04, 0.16};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kConstant);
  return config;
}

TEST(SweepParallel, MatchesSerialBitForBit) {
  const trace::Trace t = small_trace();
  SweepConfig serial = grid_config();
  serial.threads = 1;
  SweepConfig parallel = grid_config();
  parallel.threads = 4;

  const SweepResult a = run_sweep(t, serial);
  const SweepResult b = run_sweep(t, parallel);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    ASSERT_EQ(a.points[f].results.size(), b.points[f].results.size());
    for (std::size_t p = 0; p < a.points[f].results.size(); ++p) {
      const SimResult& ra = a.points[f].results[p];
      const SimResult& rb = b.points[f].results[p];
      EXPECT_EQ(ra.policy_name, rb.policy_name);
      EXPECT_EQ(ra.overall.hits, rb.overall.hits);
      EXPECT_EQ(ra.overall.hit_bytes, rb.overall.hit_bytes);
      EXPECT_EQ(ra.evictions, rb.evictions);
      EXPECT_DOUBLE_EQ(ra.miss_latency_ms, rb.miss_latency_ms);
    }
  }
}

TEST(SweepParallel, MixedLruAndHeapGridIsThreadCountInvariant) {
  // Two LRU columns beside the heap policies. The pool starts the heap
  // cells before the LRU cells; the small rows sit below the largest
  // transfer (LRU bypasses it there) and the large rows hold it.
  const trace::DenseTrace t = trace::densify(small_trace());
  SweepConfig config = grid_config();
  config.cache_fractions = {0.01, 0.04, 0.2, 0.4};
  config.policies.push_back(cache::policy_spec_from_name("LRU"));

  std::size_t rows_holding_largest = 0;
  for (const double fraction : config.cache_fractions) {
    if (static_cast<double>(t.overall_size_bytes()) * fraction >=
        static_cast<double>(t.max_transfer_size())) {
      ++rows_holding_largest;
    }
  }
  ASSERT_EQ(rows_holding_largest, 2u);

  SweepConfig serial = config;
  serial.threads = 1;
  const SweepResult baseline = run_sweep(t, serial);

  // The comparison must cover every counter a cell carries.
  std::uint64_t modification_misses = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t bypasses = 0;
  for (const SweepPoint& point : baseline.points) {
    for (const SimResult& r : point.results) {
      modification_misses += r.modification_misses;
      interrupted += r.interrupted_transfers;
      bypasses += r.bypasses;
    }
  }
  EXPECT_GT(modification_misses, 0u);
  EXPECT_GT(interrupted, 0u);
  EXPECT_GT(bypasses, 0u);

  for (const std::uint32_t threads : {2u, 3u, 4u}) {
    SweepConfig run = config;
    run.threads = threads;
    const SweepResult sweep = run_sweep(t, run);
    ASSERT_EQ(sweep.points.size(), baseline.points.size());
    for (std::size_t f = 0; f < sweep.points.size(); ++f) {
      ASSERT_EQ(sweep.points[f].results.size(),
                baseline.points[f].results.size());
      for (std::size_t p = 0; p < sweep.points[f].results.size(); ++p) {
        expect_same_result(sweep.points[f].results[p],
                           baseline.points[f].results[p],
                           "threads " + std::to_string(threads) + " row " +
                               std::to_string(f) + " column " +
                               std::to_string(p));
      }
    }
  }
}

TEST(SweepParallel, MoreThreadsThanCellsIsSafe) {
  const trace::Trace t = small_trace();
  SweepConfig config = grid_config();
  config.cache_fractions = {0.04};
  config.policies = {cache::policy_spec_from_name("LRU")};
  config.threads = 64;
  const SweepResult sweep = run_sweep(t, config);
  ASSERT_EQ(sweep.points.size(), 1u);
  EXPECT_GT(sweep.points[0].results[0].overall.hit_rate(), 0.0);
}

TEST(SweepParallel, WorkerExceptionsPropagateToCaller) {
  // A failing cell (invalid simulator options detected inside simulate)
  // must surface as an exception on the calling thread, not terminate.
  const trace::Trace t = small_trace();
  SweepConfig config = grid_config();
  config.threads = 4;
  config.simulator.modification_threshold = 0.0;  // rejected by simulate()
  EXPECT_THROW(run_sweep(t, config), std::invalid_argument);
}

TEST(SweepParallel, ZeroMeansHardwareConcurrency) {
  const trace::Trace t = small_trace();
  SweepConfig config = grid_config();
  config.threads = 0;
  const SweepResult sweep = run_sweep(t, config);
  for (const auto& point : sweep.points) {
    for (const auto& r : point.results) {
      EXPECT_GT(r.overall.requests, 0u);
    }
  }
}

}  // namespace
}  // namespace webcache::sim
