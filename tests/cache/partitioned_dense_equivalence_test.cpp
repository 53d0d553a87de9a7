// The PartitionedCache dense-id fast path: reserving the dense universe
// forwards to every per-class partition, every access answers as in the
// hash-map mode, and misuse — mixing dense and sparse ids, reserving on a
// non-empty cache — is rejected loudly.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "synth/generator.hpp"
#include "support/access_diff.hpp"
#include "synth/profile.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

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

// The partitions in hash-map mode (the trace's own ids) and in flat-array
// mode (reserved dense universe) answer every access identically.
TEST(PartitionedDenseEquivalence, UniformSharesMatchSparsePath) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 25;

  for (const char* name : {"LRU", "LFU-DA", "GDS(1)", "GD*(packet)",
                           "LRU-MIN", "LRU-THOLD(300000)"}) {
    const auto config = PartitionedCacheConfig::uniform_policy(
        capacity, policy_spec_from_name(name), uniform_weights());
    PartitionedCache sparse_cache(config);
    PartitionedCache dense_cache(config);
    EXPECT_GT(support::expect_same_accesses(sparse, sparse_cache, dense_cache,
                                            std::string("uniform ") + name),
              0u);
  }
}

TEST(PartitionedDenseEquivalence, ProfileDerivedSharesMatchSparsePath) {
  const trace::Trace sparse = recorded_trace();
  const std::uint64_t capacity = sparse.overall_size_bytes() / 12;

  for (const char* name : {"GD*(1)", "GDSF(packet)"}) {
    const auto config = PartitionedCacheConfig::uniform_policy(
        capacity, policy_spec_from_name(name), profile_weights());
    PartitionedCache sparse_cache(config);
    PartitionedCache dense_cache(config);
    EXPECT_GT(support::expect_same_accesses(sparse, sparse_cache, dense_cache,
                                            std::string("profile ") + name),
              0u);
  }
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
