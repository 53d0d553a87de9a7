#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include "policy_test_util.hpp"

namespace webcache::cache {
namespace {

using testutil::access_sized;

TEST(Gds, Names) {
  EXPECT_EQ(GdsPolicy(CostModelKind::kConstant).name(), "GDS(1)");
  EXPECT_EQ(GdsPolicy(CostModelKind::kPacket).name(), "GDS(packet)");
}

TEST(GdsConstant, EvictsLargestUtilityLast) {
  // With c = 1, H = L + 1/size: the largest document has the smallest value
  // and goes first.
  Cache cache(100, std::make_unique<GdsPolicy>(CostModelKind::kConstant));
  access_sized(cache, 1, 10);
  access_sized(cache, 2, 50);
  access_sized(cache, 3, 30);
  access_sized(cache, 4, 20);  // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(GdsConstant, RecentlyTouchedLargeDocSurvivesStaleSmallDoc) {
  // The Greedy-Dual aging: after enough evictions the inflation L exceeds
  // the stale small document's H, so recency can beat pure size.
  Cache cache(100, std::make_unique<GdsPolicy>(CostModelKind::kConstant));
  access_sized(cache, 1, 4);  // H = 0.25, never touched again
  // Drive the inflation up with a stream of large one-timers.
  ObjectId id = 100;
  for (int i = 0; i < 60; ++i) {
    access_sized(cache, id++, 90);
  }
  // The loop keeps exactly one 90-byte doc resident plus doc 1 (4 bytes)
  // until L + 1/90 exceeds 0.25 ... after enough rounds doc 1 must fall.
  EXPECT_FALSE(cache.contains(1));
}

TEST(GdsConstant, InflationMonotone) {
  GdsPolicy policy(CostModelKind::kConstant);
  EXPECT_EQ(policy.inflation(), 0.0);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 4;
  policy.on_insert(a);  // H = 0.25
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_DOUBLE_EQ(policy.inflation(), 0.25);
  CacheObject b;
  b.id = 2;
  b.slot = 2;
  b.size = 2;
  policy.on_insert(b);  // H = 0.25 + 0.5
  EXPECT_EQ(policy.evict(0), 2u);
  EXPECT_DOUBLE_EQ(policy.inflation(), 0.75);
}

TEST(GdsConstant, EraseOfNonVictimDoesNotInflate) {
  GdsPolicy policy(CostModelKind::kConstant);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 2;  // H = 0.5 (the minimum)
  CacheObject b;
  b.id = 2;
  b.slot = 2;
  b.size = 1;  // H = 1.0
  policy.on_insert(a);
  policy.on_insert(b);
  policy.on_erase(b);  // not the minimum: L must stay 0
  EXPECT_EQ(policy.inflation(), 0.0);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_DOUBLE_EQ(policy.inflation(), 0.5);
}

TEST(GdsConstant, HitRestoresValueAboveInflation) {
  // Without the hit, documents b and c would tie at H = 1.0 and the older
  // b would be evicted; the hit lifts b to L + 1/s = 1.5, flipping the
  // victim to c.
  GdsPolicy policy(CostModelKind::kConstant);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 2;  // H = 0.5
  CacheObject b;
  b.id = 2;
  b.slot = 2;
  b.size = 1;  // H = 1.0
  policy.on_insert(a);
  policy.on_insert(b);
  EXPECT_EQ(policy.evict(0), 1u);  // L = 0.5
  CacheObject c;
  c.id = 3;
  c.slot = 3;
  c.size = 2;  // H = 0.5 + 0.5 = 1.0, ties b
  policy.on_insert(c);
  policy.on_hit(b);  // H(b) = 0.5 + 1.0 = 1.5
  EXPECT_EQ(policy.evict(0), 3u);
}

TEST(GdsPacket, LargeDocumentsNotDiscriminated) {
  // Under packet cost, c/s -> 1/536 for large docs, so a 1 MB document is
  // worth nearly the same per byte as a 100 KB one — unlike constant cost
  // where it is 10x cheaper to drop.
  GdsPolicy packet(CostModelKind::kPacket);
  CacheObject big;
  big.id = 1;
  big.slot = 1;
  big.size = 1 << 20;
  CacheObject medium;
  medium.id = 2;
  medium.slot = 2;
  medium.size = 100 << 10;
  packet.on_insert(big);
  packet.on_insert(medium);
  // Priorities differ by far less than a factor 2 (they'd differ by ~10x
  // under the constant model).
  // Probe via victim selection on a tiny tie-breaking insertion.
  // Instead compare the policy's ordering: medium has slightly higher c/s.
  EXPECT_EQ(packet.evict(0), 1u);

  GdsPolicy constant(CostModelKind::kConstant);
  constant.on_insert(big);
  constant.on_insert(medium);
  EXPECT_EQ(constant.evict(0), 1u);
}

TEST(GdsPacket, SmallDocsStillPreferredUnderPacketCost) {
  Cache cache(2000, std::make_unique<GdsPolicy>(CostModelKind::kPacket));
  access_sized(cache, 1, 1000);  // c/s = (2 + 1000/536)/1000
  access_sized(cache, 2, 100);   // much higher c/s
  access_sized(cache, 3, 1500);  // must evict 1 (lowest H)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

}  // namespace
}  // namespace webcache::cache
