#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/factory.hpp"
#include "cache/list_policy.hpp"
#include "policy_test_util.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::access_sized;
using trace::DocumentClass;

Cache make_cache(std::uint64_t capacity) {
  return Cache(capacity, std::make_unique<LruPolicy>());
}

TEST(Cache, NullPolicyRejected) {
  EXPECT_THROW(Cache(10, nullptr), std::invalid_argument);
}

TEST(Cache, ReserveDenseIdsOnNonEmptyCacheThrows) {
  // The flat-array representation is only sound when installed before any
  // object exists; switching under live contents would orphan them.
  Cache cache = make_cache(100);
  access_sized(cache, 1, 5);
  EXPECT_THROW(cache.reserve_dense_ids(64), std::logic_error);
  // Once drained back to empty the reservation becomes legal again.
  cache.erase(1);
  EXPECT_NO_THROW(cache.reserve_dense_ids(64));

  // A dense cache may extend its universe under live contents, and keeps
  // them (recency order included); it may never shrink it.
  access_sized(cache, 3, 5);
  access_sized(cache, 63, 5);
  access_sized(cache, 3, 5);
  EXPECT_THROW(cache.access(64, 5, DocumentClass::kHtml), std::logic_error);
  EXPECT_NO_THROW(cache.reserve_dense_ids(128));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(63));
  EXPECT_EQ(access_sized(cache, 127, 91).evictions, 1u);
  EXPECT_FALSE(cache.contains(63));  // the LRU victim survived the extend
  EXPECT_TRUE(cache.contains(3));
  EXPECT_THROW(cache.reserve_dense_ids(100), std::logic_error);
  EXPECT_TRUE(cache.contains(127));
}

TEST(Cache, MissInsertsThenHits) {
  Cache cache = make_cache(10);
  EXPECT_EQ(access_sized(cache, 1, 5).kind, Cache::AccessKind::kMiss);
  EXPECT_EQ(access_sized(cache, 1, 5).kind, Cache::AccessKind::kHit);
  EXPECT_EQ(cache.used_bytes(), 5u);
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST(Cache, CapacityNeverExceeded) {
  Cache cache = make_cache(10);
  for (ObjectId id = 0; id < 100; ++id) {
    access_sized(cache, id, 1 + id % 7);
    EXPECT_LE(cache.used_bytes(), 10u);
    ASSERT_TRUE(cache.check_invariants());
  }
}

TEST(Cache, OversizedObjectBypasses) {
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  const auto outcome = access_sized(cache, 2, 11);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kBypass);
  EXPECT_EQ(outcome.evictions, 0u);
  EXPECT_FALSE(cache.contains(2));
  // The resident object is untouched by a bypass.
  EXPECT_TRUE(cache.contains(1));
}

TEST(Cache, ExactFitAllowed) {
  Cache cache = make_cache(10);
  EXPECT_EQ(access_sized(cache, 1, 10).kind, Cache::AccessKind::kMiss);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 10u);
}

TEST(Cache, ZeroCapacityBypassesEverything) {
  Cache cache = make_cache(0);
  EXPECT_EQ(access_sized(cache, 1, 1).kind, Cache::AccessKind::kBypass);
  EXPECT_EQ(cache.object_count(), 0u);
}

TEST(Cache, ZeroSizeObjectsOccupyNoBytes) {
  Cache cache = make_cache(10);
  EXPECT_EQ(access_sized(cache, 1, 0).kind, Cache::AccessKind::kMiss);
  EXPECT_EQ(access_sized(cache, 1, 0).kind, Cache::AccessKind::kHit);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST(Cache, EvictionCountReported) {
  Cache cache = make_cache(3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  const auto outcome = access_sized(cache, 4, 3);  // evicts all three
  EXPECT_EQ(outcome.evictions, 3u);
  EXPECT_EQ(cache.eviction_count(), 3u);
  EXPECT_EQ(cache.insertion_count(), 4u);
}

TEST(Cache, ForceMissInvalidatesAndReplaces) {
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  const auto outcome =
      cache.access(1, 7, DocumentClass::kHtml, /*force_miss=*/true);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kMiss);
  const CacheObject* obj = cache.find(1);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->size, 7u);
  EXPECT_EQ(obj->reference_count, 1u);  // fresh object, not a hit
  EXPECT_EQ(cache.used_bytes(), 7u);
  ASSERT_TRUE(cache.check_invariants());
}

TEST(Cache, ForceMissOnAbsentIsPlainMiss) {
  Cache cache = make_cache(10);
  const auto outcome =
      cache.access(1, 5, DocumentClass::kOther, /*force_miss=*/true);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kMiss);
  EXPECT_TRUE(cache.contains(1));
}

TEST(Cache, ForceMissOversizedDropsResidentCopy) {
  // A modified document that no longer fits must not leave the stale copy.
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  const auto outcome =
      cache.access(1, 20, DocumentClass::kOther, /*force_miss=*/true);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kBypass);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(Cache, HitUpdatesMetadata) {
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  access_sized(cache, 1, 5);
  access_sized(cache, 1, 5);
  const CacheObject* obj = cache.find(1);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->reference_count, 3u);
  EXPECT_EQ(obj->insert_index, 1u);
  EXPECT_EQ(obj->previous_access, 2u);
  EXPECT_EQ(obj->last_access, 3u);
}

TEST(Cache, EraseRemovesWithoutEvictionCount) {
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  cache.erase(1);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.eviction_count(), 0u);
  cache.erase(1);  // idempotent
  ASSERT_TRUE(cache.check_invariants());
}

TEST(Cache, PerClassOccupancyTracked) {
  Cache cache = make_cache(100);
  cache.access(1, 10, DocumentClass::kImage);
  cache.access(2, 20, DocumentClass::kImage);
  cache.access(3, 30, DocumentClass::kMultiMedia);
  const Occupancy occ = cache.occupancy();
  EXPECT_EQ(occ.total_objects, 3u);
  EXPECT_EQ(occ.total_bytes, 60u);
  EXPECT_DOUBLE_EQ(occ.object_fraction(DocumentClass::kImage), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(occ.byte_fraction(DocumentClass::kImage), 0.5);
  EXPECT_DOUBLE_EQ(occ.byte_fraction(DocumentClass::kMultiMedia), 0.5);
  EXPECT_DOUBLE_EQ(occ.byte_fraction(DocumentClass::kHtml), 0.0);
}

TEST(Cache, OccupancyFractionsOnEmptyCacheAreZero) {
  Cache cache = make_cache(10);
  const Occupancy occ = cache.occupancy();
  EXPECT_EQ(occ.object_fraction(DocumentClass::kImage), 0.0);
  EXPECT_EQ(occ.byte_fraction(DocumentClass::kImage), 0.0);
}

TEST(Cache, TouchRecordsHitWithoutInsert) {
  Cache cache = make_cache(10);
  EXPECT_FALSE(cache.touch(1));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.put(1, 5, DocumentClass::kHtml));
  EXPECT_TRUE(cache.touch(1));
  EXPECT_EQ(cache.find(1)->reference_count, 2u);
}

TEST(Cache, PutReplacesResident) {
  Cache cache = make_cache(10);
  cache.put(1, 5, DocumentClass::kHtml);
  EXPECT_TRUE(cache.put(1, 8, DocumentClass::kHtml));
  EXPECT_EQ(cache.used_bytes(), 8u);
  EXPECT_EQ(cache.find(1)->reference_count, 1u);
}

TEST(Cache, PutOversizedReturnsFalse) {
  Cache cache = make_cache(10);
  EXPECT_FALSE(cache.put(1, 11, DocumentClass::kHtml));
  EXPECT_FALSE(cache.contains(1));
}

class RecordingListener final : public RemovalListener {
 public:
  void on_removal(const CacheObject& obj, RemovalCause cause) override {
    removed.push_back(obj.id);
    causes.push_back(cause);
  }
  std::vector<ObjectId> removed;
  std::vector<RemovalCause> causes;
};

TEST(Cache, RemovalListenerSeesEveryDeparture) {
  Cache cache = make_cache(3);
  RecordingListener listener;
  std::vector<ObjectId>& removed = listener.removed;
  cache.set_removal_listener(&listener);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 4);  // evicts 1
  cache.erase(3);    // explicit removal
  cache.access(2, 1, DocumentClass::kOther, /*force_miss=*/true);  // replace
  ASSERT_EQ(removed.size(), 3u);
  EXPECT_EQ(removed[0], 1u);
  EXPECT_EQ(removed[1], 3u);
  EXPECT_EQ(removed[2], 2u);
  EXPECT_EQ(listener.causes[0], RemovalCause::kEviction);
  EXPECT_EQ(listener.causes[1], RemovalCause::kInvalidation);
  EXPECT_EQ(listener.causes[2], RemovalCause::kInvalidation);
}

TEST(Cache, ResetClearsEverything) {
  Cache cache = make_cache(10);
  access_sized(cache, 1, 5);
  access_sized(cache, 2, 5);
  access_sized(cache, 3, 5);
  cache.reset();
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.object_count(), 0u);
  EXPECT_EQ(cache.clock(), 0u);
  EXPECT_EQ(cache.eviction_count(), 0u);
  EXPECT_FALSE(cache.contains(1));
  // Still usable after reset.
  EXPECT_EQ(access_sized(cache, 1, 5).kind, Cache::AccessKind::kMiss);
  ASSERT_TRUE(cache.check_invariants());
}

TEST(Cache, IsItsOwnFrontend) {
  // The replay loops drive a Cache through the CacheFrontend interface:
  // one fault domain, reported under the policy's name.
  Cache cache(100, make_policy("GDS(1)"));
  CacheFrontend& frontend = cache;
  EXPECT_EQ(frontend.description(), "GDS(1)");
  EXPECT_EQ(frontend.capacity_bytes(), 100u);
  EXPECT_EQ(frontend.access(1, 40, DocumentClass::kImage, false).kind,
            AccessKind::kMiss);
  EXPECT_TRUE(frontend.contains(1));
  EXPECT_EQ(frontend.occupancy().total_bytes, 40u);
  EXPECT_EQ(frontend.fault_domains(), 1u);
  EXPECT_THROW(frontend.crash_domain(1), std::logic_error);
  frontend.crash_domain(0);
  EXPECT_FALSE(frontend.contains(1));
  EXPECT_EQ(frontend.occupancy().total_bytes, 0u);
}

TEST(Cache, ClockCountsAccesses) {
  Cache cache = make_cache(10);
  access(cache, 1);
  access(cache, 1);
  access_sized(cache, 2, 100);  // bypass still advances the clock
  EXPECT_EQ(cache.clock(), 3u);
}

}  // namespace
}  // namespace webcache::cache
