#include "cache/list_policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "policy_test_util.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

TEST(Lru, EvictsLeastRecentlyUsed) {
  Cache cache = unit_cache(std::make_unique<LruPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 4);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Lru, HitRefreshesRecency) {
  Cache cache = unit_cache(std::make_unique<LruPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  EXPECT_TRUE(access(cache, 1));  // 1 becomes MRU; 2 is now LRU
  access(cache, 4);               // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Lru, SequentialScanEvictsInOrder) {
  Cache cache = unit_cache(std::make_unique<LruPolicy>(), 2);
  for (ObjectId id = 1; id <= 10; ++id) access(cache, id);
  EXPECT_TRUE(cache.contains(9));
  EXPECT_TRUE(cache.contains(10));
  for (ObjectId id = 1; id <= 8; ++id) EXPECT_FALSE(cache.contains(id));
}

TEST(Lru, CyclicAccessOverCapacityNeverHits) {
  // The classic LRU pathology: a loop one item larger than the cache.
  Cache cache = unit_cache(std::make_unique<LruPolicy>(), 3);
  int hits = 0;
  for (int round = 0; round < 5; ++round) {
    for (ObjectId id = 1; id <= 4; ++id) {
      if (access(cache, id)) ++hits;
    }
  }
  EXPECT_EQ(hits, 0);
}

TEST(Lru, PolicyRejectsProtocolViolations) {
  LruPolicy policy;
  CacheObject obj;
  obj.id = 1;
  obj.slot = 1;
  policy.on_insert(obj);
  EXPECT_THROW(policy.on_insert(obj), std::logic_error);
  CacheObject absent;
  absent.id = 2;
  absent.slot = 2;
  EXPECT_THROW(policy.on_hit(absent), std::logic_error);
  EXPECT_THROW(policy.on_erase(absent), std::logic_error);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_THROW(policy.evict(0), std::logic_error);
  EXPECT_THROW(policy.on_erase(obj), std::logic_error);
}

TEST(Lru, ClearResetsState) {
  LruPolicy policy;
  CacheObject obj;
  obj.id = 5;
  obj.slot = 5;
  policy.on_insert(obj);
  policy.clear();
  EXPECT_THROW(policy.evict(0), std::logic_error);
  policy.on_insert(obj);  // reusable
  EXPECT_EQ(policy.evict(0), 5u);
}

TEST(Lru, Name) { EXPECT_EQ(LruPolicy().name(), "LRU"); }

}  // namespace
}  // namespace webcache::cache
