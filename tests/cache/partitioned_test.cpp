#include "cache/partitioned.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"
#include "synth/generator.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

PartitionedCacheConfig basic_config(std::uint64_t capacity = 1000) {
  std::array<double, trace::kDocumentClassCount> weights{};
  weights.fill(1.0);
  PolicySpec lru;
  lru.kind = PolicyKind::kLru;
  return PartitionedCacheConfig::uniform_policy(capacity, lru, weights);
}

TEST(Partitioned, RejectsInvalidConfig) {
  PartitionedCacheConfig config = basic_config();
  config.capacity_bytes = 0;
  EXPECT_THROW(PartitionedCache{config}, std::invalid_argument);

  config = basic_config();
  config.shares[0] += 0.5;  // no longer sums to 1
  EXPECT_THROW(PartitionedCache{config}, std::invalid_argument);

  std::array<double, trace::kDocumentClassCount> zero{};
  PolicySpec lru;
  EXPECT_THROW(PartitionedCacheConfig::uniform_policy(100, lru, zero),
               std::invalid_argument);
}

TEST(Partitioned, UniformPolicyNormalizesWeights) {
  std::array<double, trace::kDocumentClassCount> weights{};
  weights[0] = 3.0;
  weights[1] = 1.0;
  PolicySpec lru;
  const auto config = PartitionedCacheConfig::uniform_policy(100, lru, weights);
  EXPECT_DOUBLE_EQ(config.shares[0], 0.75);
  EXPECT_DOUBLE_EQ(config.shares[1], 0.25);
  EXPECT_DOUBLE_EQ(config.shares[2], 0.0);
}

TEST(Partitioned, ClassesAreIsolated) {
  // Flooding the image partition must not evict HTML documents.
  PartitionedCacheConfig config = basic_config(1000);  // 200 bytes each
  PartitionedCache cache(config);
  cache.access(1, 100, DocumentClass::kHtml, false);
  for (ObjectId id = 100; id < 150; ++id) {
    cache.access(id, 100, DocumentClass::kImage, false);
  }
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.access(1, 100, DocumentClass::kHtml, false).kind,
            Cache::AccessKind::kHit);
}

TEST(Partitioned, ZeroSharePartitionBypasses) {
  std::array<double, trace::kDocumentClassCount> weights{};
  weights[static_cast<std::size_t>(DocumentClass::kImage)] = 1.0;
  PolicySpec lru;
  PartitionedCache cache(
      PartitionedCacheConfig::uniform_policy(1000, lru, weights));
  EXPECT_EQ(cache.access(1, 10, DocumentClass::kMultiMedia, false).kind,
            Cache::AccessKind::kBypass);
  EXPECT_EQ(cache.access(2, 10, DocumentClass::kImage, false).kind,
            Cache::AccessKind::kMiss);
  EXPECT_TRUE(cache.contains(2));
}

TEST(Partitioned, OccupancyAggregatesPartitions) {
  PartitionedCache cache(basic_config(1000));
  cache.access(1, 50, DocumentClass::kImage, false);
  cache.access(2, 70, DocumentClass::kApplication, false);
  const Occupancy occ = cache.occupancy();
  EXPECT_EQ(occ.total_objects, 2u);
  EXPECT_EQ(occ.total_bytes, 120u);
  EXPECT_EQ(occ.bytes[static_cast<std::size_t>(DocumentClass::kImage)], 50u);
}

TEST(Partitioned, EvictionCountSumsPartitions) {
  PartitionedCache cache(basic_config(500));  // 100 bytes per class
  for (ObjectId id = 0; id < 10; ++id) {
    cache.access(id, 60, DocumentClass::kHtml, false);
  }
  EXPECT_GT(cache.eviction_count(), 0u);
}

TEST(Partitioned, DescriptionListsPartitions) {
  const std::string desc = PartitionedCache(basic_config()).description();
  EXPECT_NE(desc.find("Partitioned["), std::string::npos);
  EXPECT_NE(desc.find("Multi Media:LRU"), std::string::npos);
}

TEST(Partitioned, ForceMissInvalidatesWithinPartition) {
  PartitionedCache cache(basic_config(1000));
  cache.access(1, 50, DocumentClass::kHtml, false);
  const auto outcome = cache.access(1, 60, DocumentClass::kHtml, true);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kMiss);
  EXPECT_EQ(cache.partition(DocumentClass::kHtml).used_bytes(), 60u);
}

TEST(Partitioned, RunsThroughSimulatorFrontend) {
  synth::GeneratorOptions gen;
  gen.seed = 3;
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002), gen)
          .generate();

  // Shares proportional to the class request mix, GD*(1) everywhere.
  const synth::WorkloadProfile profile = synth::WorkloadProfile::DFN();
  std::array<double, trace::kDocumentClassCount> weights{};
  for (const auto cls : trace::kAllDocumentClasses) {
    weights[static_cast<std::size_t>(cls)] = profile.of(cls).request_fraction;
  }
  PartitionedCache cache(PartitionedCacheConfig::uniform_policy(
      t.overall_size_bytes() / 25, policy_spec_from_name("GD*(1)"), weights));

  const sim::SimResult r = sim::simulate(trace::densify(t), cache, {});
  EXPECT_GT(r.overall.hit_rate(), 0.1);
  EXPECT_NE(r.policy_name.find("Partitioned["), std::string::npos);
  // The multimedia partition exists but is tiny; metrics still consistent.
  EXPECT_LE(r.overall.hit_bytes, r.overall.requested_bytes);
}

TEST(Partitioned, GuaranteedMultimediaBudgetRaisesItsByteHitRate) {
  // The design question from the paper's conclusion: giving multi media a
  // protected byte budget buys back the byte hit rate GD*(1) gives up.
  synth::GeneratorOptions gen;
  gen.seed = 11;
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.02), gen)
          .generate();
  const std::uint64_t capacity = t.overall_size_bytes() / 12;  // ~8%

  const sim::SimResult unified = sim::simulate(
      t, capacity, policy_spec_from_name("GD*(1)"), {});

  std::array<double, trace::kDocumentClassCount> weights{};
  weights[static_cast<std::size_t>(DocumentClass::kImage)] = 0.40;
  weights[static_cast<std::size_t>(DocumentClass::kHtml)] = 0.20;
  weights[static_cast<std::size_t>(DocumentClass::kMultiMedia)] = 0.20;
  weights[static_cast<std::size_t>(DocumentClass::kApplication)] = 0.15;
  weights[static_cast<std::size_t>(DocumentClass::kOther)] = 0.05;
  PartitionedCache partitioned(PartitionedCacheConfig::uniform_policy(
      capacity, policy_spec_from_name("GD*(1)"), weights));
  const sim::SimResult split =
      sim::simulate(trace::densify(t), partitioned, {});

  EXPECT_GT(split.of(DocumentClass::kMultiMedia).byte_hit_rate(),
            unified.of(DocumentClass::kMultiMedia).byte_hit_rate());
}

}  // namespace
}  // namespace webcache::cache
