#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include "policy_test_util.hpp"

namespace webcache::cache {
namespace {

using testutil::access_sized;

TEST(Gdsf, Names) {
  EXPECT_EQ(GdsfPolicy(CostModelKind::kConstant).name(), "GDSF(1)");
  EXPECT_EQ(GdsfPolicy(CostModelKind::kPacket).name(), "GDSF(packet)");
}

TEST(Gdsf, FrequencyScalesUtility) {
  // Two equal-size docs; the frequently referenced one must survive.
  Cache cache(100, std::make_unique<GdsfPolicy>(CostModelKind::kConstant));
  access_sized(cache, 1, 40);
  access_sized(cache, 2, 40);
  access_sized(cache, 1, 40);  // f(1) = 2
  access_sized(cache, 3, 40);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Gdsf, FrequencyCanOutweighSize) {
  // A popular large document beats an unpopular smaller one once
  // f * c / s crosses over: f=8 at size 50 vs f=1 at size 20.
  Cache cache(90, std::make_unique<GdsfPolicy>(CostModelKind::kConstant));
  access_sized(cache, 1, 50);
  for (int i = 0; i < 7; ++i) access_sized(cache, 1, 50);  // f -> 8, H = 0.16
  access_sized(cache, 2, 20);  // H = 0.05
  access_sized(cache, 3, 30);  // must evict 2, not the popular giant
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Gdsf, InflationFromEvictedVictim) {
  GdsfPolicy policy(CostModelKind::kConstant);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 10;
  a.reference_count = 5;
  policy.on_insert(a);  // H = 0.5
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_DOUBLE_EQ(policy.inflation(), 0.5);
}

}  // namespace
}  // namespace webcache::cache
