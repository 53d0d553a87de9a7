// The PartitionedCache dense-id fast path: reserving the dense universe
// forwards to every per-class partition, results stay bit-identical to the
// sparse path (simulate and sweep), and misuse — mixing dense and sparse
// ids, reserving on a non-empty cache — is rejected loudly.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

void expect_identical_counters(const sim::HitCounters& a,
                               const sim::HitCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

void expect_identical(const sim::SimResult& sparse, const sim::SimResult& dense,
                      const std::string& label) {
  EXPECT_EQ(sparse.policy_name, dense.policy_name) << label;
  EXPECT_EQ(sparse.capacity_bytes, dense.capacity_bytes) << label;
  expect_identical_counters(sparse.overall, dense.overall, label);
  for (std::size_t c = 0; c < sparse.per_class.size(); ++c) {
    expect_identical_counters(sparse.per_class[c], dense.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(sparse.evictions, dense.evictions) << label;
  EXPECT_EQ(sparse.bypasses, dense.bypasses) << label;
  EXPECT_EQ(sparse.modification_misses, dense.modification_misses) << label;
  EXPECT_EQ(sparse.interrupted_transfers, dense.interrupted_transfers)
      << label;
}

trace::Trace recorded_trace() {
  synth::GeneratorOptions gen;
  gen.seed = 3;
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002),
                               gen)
      .generate();
}

std::array<double, trace::kDocumentClassCount> uniform_weights() {
  std::array<double, trace::kDocumentClassCount> weights{};
  weights.fill(1.0);
  return weights;
}

std::array<double, trace::kDocumentClassCount> profile_weights() {
  const synth::WorkloadProfile profile = synth::WorkloadProfile::DFN();
  std::array<double, trace::kDocumentClassCount> weights{};
  for (const auto cls : trace::kAllDocumentClasses) {
    weights[static_cast<std::size_t>(cls)] = profile.of(cls).request_fraction;
  }
  return weights;
}

TEST(PartitionedDenseEquivalence, UniformSharesMatchSparsePath) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;

  for (const char* name : {"LRU", "LFU-DA", "GDS(1)", "GD*(packet)",
                           "LRU-MIN", "LRU-THOLD(300000)"}) {
    const auto config = PartitionedCacheConfig::uniform_policy(
        capacity, policy_spec_from_name(name), uniform_weights());
    PartitionedCache sparse_cache(config);
    PartitionedCache dense_cache(config);
    const sim::SimResult a = sim::simulate(sparse, sparse_cache, {});
    const sim::SimResult b = sim::simulate(dense, dense_cache, {});
    expect_identical(a, b, std::string("uniform ") + name);
  }
}

TEST(PartitionedDenseEquivalence, ProfileDerivedSharesMatchSparsePath) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);
  const std::uint64_t capacity = sparse.overall_size_bytes() / 12;

  for (const char* name : {"GD*(1)", "GDSF(packet)"}) {
    const auto config = PartitionedCacheConfig::uniform_policy(
        capacity, policy_spec_from_name(name), profile_weights());
    PartitionedCache sparse_cache(config);
    PartitionedCache dense_cache(config);
    const sim::SimResult a = sim::simulate(sparse, sparse_cache, {});
    const sim::SimResult b = sim::simulate(dense, dense_cache, {});
    expect_identical(a, b, std::string("profile ") + name);
  }
}

TEST(PartitionedDenseEquivalence, FrontendSweepMatchesSparsePath) {
  const trace::Trace sparse = recorded_trace();
  const trace::DenseTrace dense = trace::densify(sparse);

  sim::FrontendSweepConfig config;
  config.cache_fractions = {0.02, 0.08};
  config.threads = 2;
  for (const auto& weights : {uniform_weights(), profile_weights()}) {
    config.frontends.push_back(
        [weights](std::uint64_t capacity) -> std::unique_ptr<CacheFrontend> {
          return std::make_unique<PartitionedCache>(
              PartitionedCacheConfig::uniform_policy(
                  capacity, policy_spec_from_name("GD*(1)"), weights));
        });
  }

  // Every dense sweep cell must equal the sparse single-frontend replay of
  // a fresh frontend from the same factory at the cell's capacity.
  const sim::SweepResult sweep = sim::run_sweep(dense, config);
  EXPECT_EQ(sweep.overall_size_bytes, sparse.overall_size_bytes());
  ASSERT_EQ(sweep.points.size(), config.cache_fractions.size());
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    const sim::SweepPoint& point = sweep.points[f];
    ASSERT_EQ(point.results.size(), config.frontends.size());
    for (std::size_t p = 0; p < point.results.size(); ++p) {
      const std::unique_ptr<CacheFrontend> fresh =
          config.frontends[p](point.capacity_bytes);
      expect_identical(sim::simulate(sparse, *fresh, config.simulator),
                       point.results[p],
                       "cell f" + std::to_string(f) + " p" + std::to_string(p));
    }
  }
}

TEST(PartitionedDenseEquivalence, FrontendSweepRejectsBadConfig) {
  const trace::DenseTrace t = trace::densify(recorded_trace());
  sim::FrontendSweepConfig config;  // no frontends
  EXPECT_THROW(sim::run_sweep(t, config), std::invalid_argument);
  config.frontends.push_back(sim::FrontendFactory{});  // null factory
  EXPECT_THROW(sim::run_sweep(t, config), std::invalid_argument);
}

TEST(PartitionedDenseEquivalence, ReserveForwardsToEveryPartition) {
  PartitionedCache cache(PartitionedCacheConfig::uniform_policy(
      1000, policy_spec_from_name("LRU"), uniform_weights()));
  cache.reserve_dense_ids(64);
  // Every class accepts in-universe ids into its own (now dense) partition.
  for (const auto cls : trace::kAllDocumentClasses) {
    const auto id = static_cast<ObjectId>(cls);
    EXPECT_EQ(cache.access(id, 10, cls, false).kind, Cache::AccessKind::kMiss);
    EXPECT_TRUE(cache.partition(cls).contains(id));
  }
}

TEST(PartitionedDenseEquivalence, MixingDenseAndSparseIdsIsRejected) {
  PartitionedCache cache(PartitionedCacheConfig::uniform_policy(
      1000, policy_spec_from_name("LRU"), uniform_weights()));
  cache.reserve_dense_ids(100);
  EXPECT_EQ(cache.access(99, 10, DocumentClass::kHtml, false).kind,
            Cache::AccessKind::kMiss);
  // A sparse id (outside the reserved universe) must not reach a partition.
  EXPECT_THROW(cache.access(100, 10, DocumentClass::kHtml, false),
               std::invalid_argument);
  EXPECT_THROW(cache.access(0xdeadbeefULL, 10, DocumentClass::kImage, false),
               std::invalid_argument);
  // The in-universe content is untouched by the rejected accesses.
  EXPECT_TRUE(cache.contains(99));
}

TEST(PartitionedDenseEquivalence, ReserveOnNonEmptyCacheThrows) {
  PartitionedCache cache(PartitionedCacheConfig::uniform_policy(
      1000, policy_spec_from_name("LRU"), uniform_weights()));
  cache.access(7, 10, DocumentClass::kImage, false);
  EXPECT_THROW(cache.reserve_dense_ids(100), std::logic_error);

  // Once dense, the universe extends under live contents in every
  // partition and moves the sparse-id guard with it, but never shrinks.
  PartitionedCache dense(PartitionedCacheConfig::uniform_policy(
      1000, policy_spec_from_name("LRU"), uniform_weights()));
  dense.reserve_dense_ids(8);
  dense.access(7, 10, DocumentClass::kImage, false);
  EXPECT_THROW(dense.access(8, 10, DocumentClass::kHtml, false),
               std::invalid_argument);
  EXPECT_NO_THROW(dense.reserve_dense_ids(100));
  EXPECT_TRUE(dense.contains(7));
  dense.access(99, 10, DocumentClass::kHtml, false);
  EXPECT_TRUE(dense.partition(DocumentClass::kHtml).contains(99));
  EXPECT_THROW(dense.reserve_dense_ids(50), std::logic_error);
  EXPECT_TRUE(dense.contains(7));
}

}  // namespace
}  // namespace webcache::cache
