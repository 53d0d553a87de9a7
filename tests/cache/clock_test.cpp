#include "cache/list_policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "policy_test_util.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

TEST(Clock, UnreferencedOneTimersEvictFirst) {
  // Objects enter unarmed, so a never-hit object loses to hit ones even
  // though it is not the oldest.
  Cache cache = unit_cache(std::make_unique<ClockPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 2);  // arm 2
  access(cache, 3);  // arm 3
  access(cache, 4);  // hand passes 1 (unarmed) -> evicted
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Clock, SecondChanceRecyclesArmedObjects) {
  Cache cache = unit_cache(std::make_unique<ClockPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 1);  // arm the oldest
  access(cache, 4);  // hand: 1 armed -> recycled; 2 unarmed -> evicted
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Clock, ReferenceBitIsCappedAtOne) {
  // Many hits still grant only one extra pass for k = 1: after the hand
  // strips the bit once, the next pass evicts.
  Cache cache = unit_cache(std::make_unique<ClockPolicy>(), 2);
  access(cache, 1);
  for (int i = 0; i < 10; ++i) access(cache, 1);
  access(cache, 2);
  access(cache, 3);  // hand: 1 recycled (bit stripped), 2 evicted
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  access(cache, 4);  // hand: 1 now unarmed -> evicted
  EXPECT_FALSE(cache.contains(1));
}

TEST(DelayClock, CounterGrantsMultipleChances) {
  // k = 2: two hits buy two hand passes; a single hit under plain CLOCK
  // would only buy one.
  Cache cache = unit_cache(std::make_unique<DelayClockPolicy>(2), 2);
  access(cache, 1);
  access(cache, 1);
  access(cache, 1);  // counter at cap 2
  access(cache, 2);
  access(cache, 3);  // pass 1: counter 2 -> 1, evict 2
  EXPECT_TRUE(cache.contains(1));
  access(cache, 4);  // pass 2: counter 1 -> 0, evict 3
  EXPECT_TRUE(cache.contains(1));
  access(cache, 5);  // pass 3: counter 0 -> 1 finally evicted
  EXPECT_FALSE(cache.contains(1));
}

TEST(Clock, DenseAndSparseCountersAgree) {
  auto run = [](bool dense) {
    Cache cache(32, std::make_unique<ClockPolicy>());
    if (dense) cache.reserve_dense_ids(128);
    util::Rng rng(21);
    std::uint64_t hits = 0;
    for (int step = 0; step < 20000; ++step) {
      if (access(cache, rng.below(128))) ++hits;
    }
    return hits;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Clock, RejectsZeroCounterMax) {
  EXPECT_THROW(DelayClockPolicy(0), std::invalid_argument);
}

TEST(Clock, Names) {
  EXPECT_EQ(ClockPolicy().name(), "CLOCK");
  EXPECT_EQ(DelayClockPolicy(8).name(), "DELAY-CLOCK:k=8");
  EXPECT_EQ(ClockPolicy().rule().counter_max(), 1u);
  EXPECT_EQ(DelayClockPolicy(8).rule().counter_max(), 8u);
}

}  // namespace
}  // namespace webcache::cache
