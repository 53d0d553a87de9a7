// Unit tests for the lazy-promotion LRU variants. The strongest checks are
// differential: at their degenerate parameter settings (p = 1, k = 1,
// batch = 1) all three collapse to plain LRU, and the fuzzed hit sequences
// must match LruPolicy exactly.
#include "cache/list_policy.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "policy_test_util.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

std::vector<bool> fuzz_outcomes(std::unique_ptr<ReplacementPolicy> policy) {
  Cache cache = unit_cache(std::move(policy), 16);
  util::Rng rng(314);
  std::vector<bool> out;
  out.reserve(20000);
  for (int step = 0; step < 20000; ++step) {
    out.push_back(access(cache, rng.below(1 + rng.below(200))));
  }
  return out;
}

TEST(ProbLru, ProbabilityOneIsExactlyLru) {
  EXPECT_EQ(fuzz_outcomes(std::make_unique<ProbLruPolicy>(1.0)),
            fuzz_outcomes(std::make_unique<LruPolicy>()));
}

TEST(DelayLru, IntervalOneIsExactlyLru) {
  // With k = 1 every hit clears the window (the clock advanced since the
  // last promotion), so promotion happens on every hit: plain LRU.
  EXPECT_EQ(fuzz_outcomes(std::make_unique<DelayLruPolicy>(1)),
            fuzz_outcomes(std::make_unique<LruPolicy>()));
}

TEST(BatchLru, BatchOneIsExactlyLru) {
  EXPECT_EQ(fuzz_outcomes(std::make_unique<BatchPromotionPolicy>(1)),
            fuzz_outcomes(std::make_unique<LruPolicy>()));
}

TEST(ProbLru, SameSeedIsDeterministicDifferentSeedDiverges) {
  auto outcomes = [](std::uint64_t seed) {
    return fuzz_outcomes(std::make_unique<ProbLruPolicy>(0.3, seed));
  };
  EXPECT_EQ(outcomes(9), outcomes(9));
  EXPECT_NE(outcomes(9), outcomes(10));
}

TEST(ProbLru, ZeroPromotionNeverReorders) {
  // p is required to be > 0, but a tiny p on a short trace means no
  // promotion ever fires; eviction order then equals insertion order.
  Cache cache = unit_cache(std::make_unique<ProbLruPolicy>(1e-12), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 1);  // hit, (almost surely) not promoted
  access(cache, 4);  // FIFO order: evicts 1 despite its recent hit
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(DelayLru, PromotionWaitsOutTheWindow) {
  // k = 100 on a short run: the window never closes, so hits do not
  // promote and the order is pure insertion order.
  Cache cache = unit_cache(std::make_unique<DelayLruPolicy>(100), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 1);
  access(cache, 4);  // evicts 1 (hit within the window does not promote)
  EXPECT_FALSE(cache.contains(1));

  // And with a window that does close, the promotion lands.
  Cache cache2 = unit_cache(std::make_unique<DelayLruPolicy>(2), 3);
  access(cache2, 1);
  access(cache2, 2);
  access(cache2, 3);
  access(cache2, 1);  // clock 4, stamp 1, 4 - 1 >= 2 -> promoted
  access(cache2, 4);  // evicts 2
  EXPECT_TRUE(cache2.contains(1));
  EXPECT_FALSE(cache2.contains(2));
}

TEST(BatchLru, HitsQueueUntilTheBatchBoundary) {
  Cache cache = unit_cache(std::make_unique<BatchPromotionPolicy>(3), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  access(cache, 1);  // queued (1 of 3)
  access(cache, 4);  // still FIFO order: evicts 1, purging its queued entry
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BatchLru, FlushPromotesInArrivalOrder) {
  Cache cache = unit_cache(std::make_unique<BatchPromotionPolicy>(3), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  // Three queued hits flush on the last one: promotion order 2, 3, 1, so
  // the list (MRU -> LRU) becomes 1, 3, 2.
  access(cache, 2);
  access(cache, 3);
  access(cache, 1);
  access(cache, 4);  // evicts 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(BatchLru, EvictionPurgesPendingEntries) {
  BatchPromotionPolicy policy(8);
  CacheObject obj;
  for (const std::uint32_t slot : {2u, 1u, 3u}) {
    obj.id = slot;
    obj.slot = slot;
    policy.on_insert(obj);
  }
  obj.id = 2;
  obj.slot = 2;
  policy.on_hit(obj);
  policy.on_hit(obj);
  EXPECT_EQ(policy.rule().pending_promotions(), 2u);
  EXPECT_EQ(policy.evict(0), 2u);  // still the LRU: its hits are queued
  EXPECT_EQ(policy.rule().pending_promotions(), 0u);
}

TEST(LazyLru, ParameterValidation) {
  EXPECT_THROW(ProbLruPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(ProbLruPolicy(1.5), std::invalid_argument);
  EXPECT_THROW(DelayLruPolicy(0), std::invalid_argument);
  EXPECT_THROW(BatchPromotionPolicy(0), std::invalid_argument);
}

TEST(LazyLru, NamesAndAccessors) {
  EXPECT_EQ(ProbLruPolicy(0.25).name(), "PROB-LRU:p=0.25");
  EXPECT_EQ(DelayLruPolicy(8).name(), "DELAY-LRU:k=8");
  EXPECT_EQ(BatchPromotionPolicy(32).name(), "BATCH-LRU:batch=32");
  EXPECT_DOUBLE_EQ(ProbLruPolicy(0.25).rule().promote_probability(), 0.25);
  EXPECT_EQ(DelayLruPolicy(8).rule().promote_interval(), 8u);
  EXPECT_EQ(BatchPromotionPolicy(32).rule().batch_size(), 32u);
}

}  // namespace
}  // namespace webcache::cache
