// LRU-Threshold's admission limit travels with the policy: every cache
// built from an LRU-THOLD policy enforces it with no further setup call —
// a bare Cache, each partition of a PartitionedCache, and every cache of a
// hierarchy.
#include <gtest/gtest.h>

#include <array>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "sim/hierarchy.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

TEST(AdmissionLimit, BareCacheTakesItFromThePolicy) {
  Cache cache(1000, make_policy("LRU-THOLD(100)"));
  EXPECT_EQ(cache.admission_limit(), 100u);
  EXPECT_EQ(cache.access(1, 101, DocumentClass::kOther).kind,
            AccessKind::kBypass);
  EXPECT_EQ(cache.access(2, 100, DocumentClass::kOther).kind,
            AccessKind::kMiss);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));

  // Other policies admit anything that fits.
  Cache lru(1000, make_policy("LRU"));
  EXPECT_EQ(lru.admission_limit(), 0u);
  EXPECT_EQ(lru.access(1, 101, DocumentClass::kOther).kind, AccessKind::kMiss);
}

TEST(AdmissionLimit, EveryPartitionTakesItFromItsPolicy) {
  std::array<double, trace::kDocumentClassCount> weights;
  weights.fill(1.0);
  PartitionedCache cache(PartitionedCacheConfig::uniform_policy(
      1000 * trace::kDocumentClassCount,
      policy_spec_from_name("LRU-THOLD(100)"), weights));
  for (const DocumentClass cls : trace::kAllDocumentClasses) {
    const auto c = static_cast<ObjectId>(cls);
    EXPECT_EQ(cache.partition(cls).admission_limit(), 100u);
    EXPECT_EQ(cache.access(10 + c, 101, cls, false).kind, AccessKind::kBypass)
        << trace::to_string(cls);
    EXPECT_EQ(cache.access(20 + c, 100, cls, false).kind, AccessKind::kMiss)
        << trace::to_string(cls);
  }
}

TEST(AdmissionLimit, HierarchyEdgeTakesItFromItsPolicy) {
  // One edge running LRU-THOLD(100) in front of a root that stores
  // nothing: the 100-byte document's re-reference hits at the edge, the
  // 101-byte one's never does.
  trace::Trace t;
  for (int round = 0; round < 2; ++round) {
    for (const std::uint64_t size : {101u, 100u}) {
      trace::Request r;
      r.document = size;
      r.client = 7;
      r.document_size = size;
      r.transfer_size = size;
      t.requests.push_back(r);
    }
  }
  sim::HierarchyConfig config;
  config.edge_count = 1;
  config.edge_capacity_bytes = 1000;
  config.edge_policy = policy_spec_from_name("LRU-THOLD(100)");
  config.root_capacity_bytes = 0;
  config.root_policy = policy_spec_from_name("LRU");
  config.simulator.warmup_fraction = 0.0;
  const sim::HierarchyResult r = sim::simulate_hierarchy(
      trace::densify(t, trace::ClientColumn::kLoad), config);
  EXPECT_EQ(r.offered.requests, 4u);
  EXPECT_EQ(r.edge_hits.hits, 1u);
  EXPECT_EQ(r.edge_hits.hit_bytes, 100u);
}

}  // namespace
}  // namespace webcache::cache
