#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include "policy_test_util.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

TEST(LfuDa, EvictsLeastFrequentAmongContemporaries) {
  Cache cache = unit_cache(std::make_unique<LfuDaPolicy>(), 3);
  access(cache, 1);
  access(cache, 1);
  access(cache, 2);
  access(cache, 2);
  access(cache, 3);
  access(cache, 4);  // evicts 3 (lowest count, same age)
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LfuDa, CacheAgeStartsAtZeroAndRises) {
  LfuDaPolicy policy;
  EXPECT_EQ(policy.inflation(), 0.0);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.reference_count = 3;
  policy.on_insert(a);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_EQ(policy.inflation(), 3.0);  // age := priority of the evictee
}

TEST(LfuDa, AgingDefeatsCachePollution) {
  // Unlike plain LFU (see fifo_size_lfu_test), the dynamic aging lets a new
  // working set displace stale high-count documents: each eviction raises
  // the cache age, so newcomers enter at (age + 1), quickly catching up.
  Cache cache = unit_cache(std::make_unique<LfuDaPolicy>(), 2);
  for (int i = 0; i < 100; ++i) {
    access(cache, 1);
    access(cache, 2);
  }
  int new_phase_hits = 0;
  for (int i = 0; i < 150; ++i) {
    if (access(cache, 3)) ++new_phase_hits;
    if (access(cache, 4)) ++new_phase_hits;
  }
  // The new working set must establish itself and then hit continuously.
  EXPECT_GT(new_phase_hits, 100);
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LfuDa, NewcomerEntersAboveAge) {
  LfuDaPolicy policy;
  CacheObject stale;
  stale.id = 1;
  stale.slot = 1;
  stale.reference_count = 10;
  policy.on_insert(stale);
  policy.evict(0);  // age becomes 10

  CacheObject fresh;
  fresh.id = 2;
  fresh.slot = 2;
  fresh.reference_count = 1;
  policy.on_insert(fresh);  // priority 11
  CacheObject fresh2;
  fresh2.id = 3;
  fresh2.slot = 3;
  fresh2.reference_count = 1;
  policy.on_insert(fresh2);  // priority 11, later sequence
  EXPECT_EQ(policy.evict(0), 2u);
}

TEST(LfuDa, HitRestoresPriorityOnTopOfCurrentAge) {
  Cache cache = unit_cache(std::make_unique<LfuDaPolicy>(), 2);
  access(cache, 1);  // prio 1
  access(cache, 2);  // prio 1
  access(cache, 1);  // prio 2
  access(cache, 3);  // evicts 2 (prio 1); age -> 1
  EXPECT_FALSE(cache.contains(2));
  // 3 entered at age 1 + count 1 = 2; 1 sits at 2 with older sequence.
  access(cache, 4);  // evicts 1 (tie at 2, older sequence)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LfuDa, Name) { EXPECT_EQ(LfuDaPolicy().name(), "LFU-DA"); }

}  // namespace
}  // namespace webcache::cache
