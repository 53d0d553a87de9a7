// Statistical contract of the SHARDS-sampled sweep: every sampled point
// must land within its own reported error bound of the exact LRU result,
// the reported error must shrink as the rate grows, fixed seeds must
// reproduce bit-identical curves, and rate == 1.0 must degenerate to exact
// simulate() cells at any capacity. Plus the run_sweep routing: sampled
// cells are annotated and never silently replace exact ones.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/reporter.hpp"
#include "sim/sampled_sweep.hpp"
#include "sim/sweep.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {
namespace {

// ~67k requests over ~30k documents: enough cardinality that rate 0.001
// still samples a few dozen documents.
const trace::Trace& reference_trace() {
  static const trace::Trace t = [] {
    synth::TraceGenerator generator(
        synth::WorkloadProfile::DFN().scaled(0.01));
    return generator.generate();
  }();
  return t;
}

// The sampled engine reads a materialized trace as a stream.
SampledCurve run_on(const SampledSweep& sweep, const trace::Trace& t) {
  trace::MemoryRequestStream stream(t);
  return sweep.run(stream);
}

// The exact LRU result at each capacity: one simulate() cell each.
std::vector<SimResult> exact_cells(const trace::Trace& t,
                                   const SampledSweepConfig& config) {
  const trace::DenseTrace dense = trace::densify(t);
  std::vector<SimResult> cells;
  for (const std::uint64_t capacity : config.capacities) {
    cells.push_back(simulate(dense, capacity,
                             cache::policy_spec_from_name("LRU"),
                             config.simulator));
  }
  return cells;
}

// Capacities that hold the largest transfer, where the sampled engine's
// stack-inclusion model applies.
std::vector<std::uint64_t> reference_ladder(const trace::Trace& t) {
  const std::uint64_t floor_bytes = trace::densify(t).max_transfer_size();
  std::vector<std::uint64_t> ladder;
  for (const std::uint64_t div : {200, 50, 12, 3}) {
    ladder.push_back(
        std::max(floor_bytes, t.overall_size_bytes() / div));
  }
  return ladder;
}

TEST(SampledSweep, RateOneIsExactlyTheSimulateResult) {
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  config.sample_rate = 1.0;

  const SampledCurve curve = run_on(SampledSweep(config), t);
  EXPECT_TRUE(curve.exact);
  EXPECT_EQ(curve.effective_rate, 1.0);
  EXPECT_EQ(curve.sampled_documents, t.distinct_documents());

  const std::vector<SimResult> exact = exact_cells(t, config);
  ASSERT_EQ(curve.results.size(), exact.size());
  ASSERT_EQ(curve.points.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(curve.results[i].overall.requests, exact[i].overall.requests);
    EXPECT_EQ(curve.results[i].overall.hits, exact[i].overall.hits);
    EXPECT_EQ(curve.results[i].overall.requested_bytes,
              exact[i].overall.requested_bytes);
    EXPECT_EQ(curve.results[i].overall.hit_bytes,
              exact[i].overall.hit_bytes);
    EXPECT_EQ(curve.points[i].hit_rate, exact[i].overall.hit_rate());
    EXPECT_EQ(curve.points[i].byte_hit_rate,
              exact[i].overall.byte_hit_rate());
    EXPECT_EQ(curve.points[i].hit_rate_error, 0.0);
    EXPECT_EQ(curve.points[i].byte_hit_rate_error, 0.0);
  }
}

TEST(SampledSweep, RateOneAcceptsCapacitiesBelowTheLargestTransfer) {
  // Below the largest transfer LRU bypasses documents, so no stack model
  // applies; the exact cells replay it like any other capacity, on a
  // stream and on a densified trace alike.
  const trace::Trace& t = reference_trace();
  const std::uint64_t largest = trace::densify(t).max_transfer_size();
  SampledSweepConfig config;
  config.capacities = {largest / 4, largest - 1, largest};
  config.sample_rate = 1.0;
  const SampledSweep sweep(config);

  const std::vector<SimResult> exact = exact_cells(t, config);
  EXPECT_GT(exact[0].bypasses, 0u);
  const SampledCurve streamed = run_on(sweep, t);
  const SampledCurve dense = sweep.run(trace::densify(t));
  for (const SampledCurve* curve : {&streamed, &dense}) {
    EXPECT_TRUE(curve->exact);
    ASSERT_EQ(curve->results.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      expect_same_result(curve->results[i], exact[i],
                         "capacity " + std::to_string(config.capacities[i]));
      EXPECT_EQ(curve->points[i].hit_rate, exact[i].overall.hit_rate());
    }
  }
}

TEST(SampledSweep, ObservedErrorWithinReportedBound) {
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  const std::vector<SimResult> exact = exact_cells(t, config);

  for (const double rate : {0.1, 0.01, 0.001}) {
    // Several independent replicates: the bound is a 99% bound, but it also
    // carries small-sample and model-bias slack, so a handful of seeded
    // draws all landing inside it is the expected behavior — a single
    // excursion at these n would indicate the bound is miscalibrated.
    for (const std::uint64_t seed :
         {config.hash_seed, std::uint64_t{1}, std::uint64_t{0xdecafbad}}) {
      config.sample_rate = rate;
      config.hash_seed = seed;
      const SampledCurve curve = run_on(SampledSweep(config), t);
      EXPECT_FALSE(curve.exact);
      EXPECT_GT(curve.sampled_documents, 0u)
          << "rate " << rate << " seed " << seed;
      for (std::size_t i = 0; i < curve.points.size(); ++i) {
        const SampledPoint& p = curve.points[i];
        const double true_hit = exact[i].overall.hit_rate();
        const double true_bhr = exact[i].overall.byte_hit_rate();
        EXPECT_LE(std::abs(p.hit_rate - true_hit), p.hit_rate_error)
            << "hit rate at capacity " << p.capacity_bytes << ", rate "
            << rate << ", seed " << seed << " (est " << p.hit_rate
            << " vs exact " << true_hit << ")";
        EXPECT_LE(std::abs(p.byte_hit_rate - true_bhr),
                  p.byte_hit_rate_error)
            << "byte hit rate at capacity " << p.capacity_bytes << ", rate "
            << rate << ", seed " << seed << " (est " << p.byte_hit_rate
            << " vs exact " << true_bhr << ")";
        EXPECT_GT(p.hit_rate_error, 0.0);
        EXPECT_LE(p.hit_rate_error, 1.0);
      }
    }
  }
}

TEST(SampledSweep, ReportedErrorShrinksAsRateGrows) {
  // The bound is data-adaptive: a single seed that happens to draw a hot
  // document at one rate legitimately reports a LARGER bound there (its
  // coverage term sees the distortion), so pointwise monotonicity across
  // rates is not the contract. The contract is in expectation: averaged
  // over seeds and the ladder, more sampling budget buys a tighter bound.
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  const std::vector<std::uint64_t> seeds = {
      config.hash_seed, 1, 0xdecafbad, 42, 777};

  std::vector<double> mean_hit, mean_byte;
  for (const double rate : {0.001, 0.01, 0.1}) {
    double hit = 0.0, byte = 0.0;
    std::size_t n = 0;
    for (const std::uint64_t seed : seeds) {
      config.sample_rate = rate;
      config.hash_seed = seed;
      const SampledCurve curve = run_on(SampledSweep(config), t);
      for (const SampledPoint& p : curve.points) {
        hit += p.hit_rate_error;
        byte += p.byte_hit_rate_error;
        ++n;
      }
    }
    mean_hit.push_back(hit / static_cast<double>(n));
    mean_byte.push_back(byte / static_cast<double>(n));
  }
  for (std::size_t i = 0; i + 1 < mean_hit.size(); ++i) {
    EXPECT_GE(mean_hit[i], mean_hit[i + 1]) << "between rate steps " << i;
    EXPECT_GE(mean_byte[i], mean_byte[i + 1]) << "between rate steps " << i;
  }
  // And the budget actually buys precision: the top rate's mean bound is
  // well below the bottom rate's saturated one.
  EXPECT_LT(mean_hit.back(), 0.6 * mean_hit.front());
}

TEST(SampledSweep, DeterministicForFixedSeedAndChunkInvariant) {
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  config.sample_rate = 0.05;

  const SampledSweep sweep(config);
  const SampledCurve a = run_on(sweep, t);
  const SampledCurve b = run_on(sweep, t);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].hit_rate, b.points[i].hit_rate);
    EXPECT_EQ(a.points[i].byte_hit_rate, b.points[i].byte_hit_rate);
    EXPECT_EQ(a.points[i].hit_rate_error, b.points[i].hit_rate_error);
    EXPECT_EQ(a.points[i].est_hits, b.points[i].est_hits);
  }
  EXPECT_EQ(a.sampled_documents, b.sampled_documents);
  EXPECT_EQ(a.sampled_requests, b.sampled_requests);

  // The estimator consumes a stream; its chunking must not matter.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    trace::MemoryRequestStream stream(t, chunk);
    const SampledCurve c = sweep.run(stream);
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      EXPECT_EQ(a.points[i].hit_rate, c.points[i].hit_rate)
          << "chunk " << chunk;
      EXPECT_EQ(a.points[i].hit_rate_error, c.points[i].hit_rate_error)
          << "chunk " << chunk;
    }
  }
}

TEST(SampledSweep, AdaptiveCapBoundsTheTrackedPopulation) {
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  config.sample_rate = 1.0;  // start exact-rate, let the cap drive it down
  config.max_sampled_documents = 256;

  const SampledCurve curve = run_on(SampledSweep(config), t);
  EXPECT_FALSE(curve.exact);  // the cap forces the sampled engine
  EXPECT_LE(curve.sampled_documents, 256u);
  EXPECT_LT(curve.effective_rate, 1.0);
  EXPECT_LE(curve.effective_rate, curve.configured_rate);
  for (const SampledPoint& p : curve.points) {
    EXPECT_GE(p.hit_rate, 0.0);
    EXPECT_LE(p.hit_rate, 1.0);
    EXPECT_GT(p.hit_rate_error, 0.0);
  }

  // Deterministic: the eviction order is a pure function of the hashes.
  const SampledCurve again = run_on(SampledSweep(config), t);
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    EXPECT_EQ(curve.points[i].hit_rate, again.points[i].hit_rate);
    EXPECT_EQ(curve.points[i].hit_rate_error,
              again.points[i].hit_rate_error);
  }
  EXPECT_EQ(curve.effective_rate, again.effective_rate);
}

TEST(SampledSweep, ValidatesConfiguration) {
  SampledSweepConfig config;
  EXPECT_THROW(SampledSweep{config}, std::invalid_argument);  // empty ladder
  config.capacities = {1 << 20};
  config.sample_rate = 0.0;
  EXPECT_THROW(SampledSweep{config}, std::invalid_argument);
  config.sample_rate = 1.5;
  EXPECT_THROW(SampledSweep{config}, std::invalid_argument);
  config.sample_rate = 0.5;
  config.simulator.warmup_fraction = 1.0;
  EXPECT_THROW(SampledSweep{config}, std::invalid_argument);
  config.simulator.warmup_fraction = 0.1;
  for (const double threshold : {0.0, 1.0}) {
    config.simulator.modification_threshold = threshold;
    EXPECT_THROW(SampledSweep{config}, std::invalid_argument) << threshold;
  }
  config.simulator.modification_threshold = 0.05;
  EXPECT_NO_THROW(SampledSweep{config});
}

// ---- run_sweep routing ----

TEST(SampledSweep, RunSweepAnnotatesSampledLruCells) {
  const trace::Trace& t = reference_trace();
  SweepConfig config;
  config.cache_fractions = {0.02, 0.08};
  config.policies = {cache::policy_spec_from_name("LRU"),
                     cache::policy_spec_from_name("FIFO")};
  config.sampling = SamplingMode::kOn;
  config.sample_rate = 0.1;

  const SweepResult sweep = run_sweep(t, config);
  EXPECT_TRUE(sweep.sampled);
  EXPECT_EQ(sweep.sample_rate, 0.1);
  for (const SweepPoint& point : sweep.points) {
    ASSERT_EQ(point.estimates.size(), config.policies.size());
    EXPECT_TRUE(point.estimates[0].sampled);   // LRU column
    EXPECT_GT(point.estimates[0].hit_rate_error, 0.0);
    EXPECT_FALSE(point.estimates[1].sampled);  // FIFO stays exact
    EXPECT_EQ(point.estimates[1].hit_rate_error, 0.0);
    // The sampled estimate must be in the bound's reach of the exact cell.
    const SweepConfig exact_config = [&] {
      SweepConfig c = config;
      c.sampling = SamplingMode::kOff;
      return c;
    }();
    const SweepResult exact = run_sweep(t, exact_config);
    EXPECT_FALSE(exact.sampled);
    for (std::size_t f = 0; f < exact.points.size(); ++f) {
      const double est = sweep.points[f].results[0].overall.hit_rate();
      const double truth = exact.points[f].results[0].overall.hit_rate();
      EXPECT_LE(std::abs(est - truth),
                sweep.points[f].estimates[0].hit_rate_error)
          << "fraction index " << f;
      // Non-LRU columns must be bit-identical between the two runs.
      EXPECT_EQ(sweep.points[f].results[1].overall.hits,
                exact.points[f].results[1].overall.hits);
    }
    break;  // the exact cross-check only needs to run once
  }
}

TEST(SampledSweep, SweepJsonCarriesErrorBars) {
  const trace::Trace& t = reference_trace();
  SweepConfig config;
  config.cache_fractions = {0.04};
  config.policies = {cache::policy_spec_from_name("LRU")};
  config.sampling = SamplingMode::kOn;
  config.sample_rate = 0.1;

  const SweepResult sweep = run_sweep(t, config);
  std::ostringstream json;
  write_sweep_json(json, sweep);
  EXPECT_NE(json.str().find("\"sampling\""), std::string::npos);
  EXPECT_NE(json.str().find("\"hit_rate_error\""), std::string::npos);

  // Exact sweeps must serialize without any sampling fields — the schema
  // extension is strictly additive.
  config.sampling = SamplingMode::kOff;
  const SweepResult exact = run_sweep(t, config);
  std::ostringstream exact_json;
  write_sweep_json(exact_json, exact);
  EXPECT_EQ(exact_json.str().find("\"sampling\""), std::string::npos);
  EXPECT_EQ(exact_json.str().find("\"hit_rate_error\""), std::string::npos);
}

TEST(SampledSweep, DenseTraceSamplesByOriginalIdByteForByte) {
  // SHARDS picks documents by hashing their id, so a densified trace must
  // hash the original ids, not its renumbered ones. Otherwise the same
  // trace would sample a different document set once densified, and
  // `webcache sweep --sampling=on` would change its curve when the CLI
  // densifies after loading.
  const trace::Trace& t = reference_trace();
  SampledSweepConfig config;
  config.capacities = reference_ladder(t);
  config.sample_rate = 0.1;
  const SampledSweep sweep(config);

  const SampledCurve original = run_on(sweep, t);
  const SampledCurve dense = sweep.run(trace::densify(t));
  EXPECT_FALSE(original.exact);
  EXPECT_EQ(original.sampled_documents, dense.sampled_documents);
  EXPECT_EQ(original.sampled_requests, dense.sampled_requests);
  EXPECT_EQ(original.effective_rate, dense.effective_rate);
  ASSERT_EQ(original.points.size(), dense.points.size());
  for (std::size_t i = 0; i < original.points.size(); ++i) {
    const SampledPoint& a = original.points[i];
    const SampledPoint& b = dense.points[i];
    EXPECT_EQ(a.hit_rate, b.hit_rate) << i;
    EXPECT_EQ(a.byte_hit_rate, b.byte_hit_rate) << i;
    EXPECT_EQ(a.hit_rate_error, b.hit_rate_error) << i;
    EXPECT_EQ(a.byte_hit_rate_error, b.byte_hit_rate_error) << i;
    EXPECT_EQ(a.est_hits, b.est_hits) << i;
    EXPECT_EQ(a.est_hit_bytes, b.est_hit_bytes) << i;
    EXPECT_EQ(original.results[i].miss_latency_ms,
              dense.results[i].miss_latency_ms)
        << i;
  }
}

}  // namespace
}  // namespace webcache::sim
