#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "policy_test_util.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

using testutil::access_sized;

TEST(GdStar, Names) {
  EXPECT_EQ(GdStarPolicy(CostModelKind::kConstant).name(), "GD*(1)");
  EXPECT_EQ(GdStarPolicy(CostModelKind::kPacket).name(), "GD*(packet)");
}

TEST(GdStar, RejectsNonPositiveFixedBeta) {
  EXPECT_THROW(GdStarPolicy(CostModelKind::kConstant, 0.0),
               std::invalid_argument);
  EXPECT_THROW(GdStarPolicy(CostModelKind::kConstant, -1.0),
               std::invalid_argument);
}

TEST(GdStar, FixedBetaReported) {
  GdStarPolicy policy(CostModelKind::kConstant, 0.5);
  EXPECT_DOUBLE_EQ(policy.beta(), 0.5);
}

TEST(GdStar, WithBetaOneMatchesGdsfEvictionOrder) {
  // H = L + (f c / s)^(1/1) is exactly GDSF: replay a mixed workload on
  // both policies and demand identical victims throughout.
  util::Rng rng(41);
  Cache gdstar(500, std::make_unique<GdStarPolicy>(CostModelKind::kConstant,
                                                   /*fixed_beta=*/1.0));
  Cache gdsf(500, std::make_unique<GdsfPolicy>(CostModelKind::kConstant));
  for (int i = 0; i < 3000; ++i) {
    const ObjectId id = rng.below(100);
    const std::uint64_t size = 10 + (id % 7) * 13;
    const auto a = gdstar.access(id, size, trace::DocumentClass::kOther);
    const auto b = gdsf.access(id, size, trace::DocumentClass::kOther);
    ASSERT_EQ(a.kind, b.kind) << "diverged at step " << i;
    ASSERT_EQ(a.evictions, b.evictions) << "diverged at step " << i;
  }
}

TEST(GdStar, SmallBetaAmplifiesFrequency) {
  // beta = 0.5 squares the utility: a doc with f=3 at size 9 (utility
  // 1/3 -> 1/9) still loses to f=1 at size 2 (utility 1/2 -> 1/4), but wins
  // under beta small when its frequency grows: check the relative ordering
  // flips between beta = 1 and beta = 0.5 for a crafted pair.
  // Pair: A(f=2, s=6) utility 1/3; B(f=1, s=2) utility 1/2.
  //   beta=1:   A=0.333 < B=0.5   -> victim A
  //   beta=0.5: A=0.111 < B=0.25  -> victim A (ordering preserved)
  // Pair that flips: A(f=4, s=2) utility 2; B(f=1, s=1) utility 1.
  //   both > 1 so exponent 2 amplifies A's lead; use C(f=2,s=4)=0.5 vs
  //   D(f=3,s=5)=0.6: beta=1 victim C; beta=0.5: C=0.25 vs D=0.36, victim C.
  // Sub-unit utilities keep order under powers; the *mixture* with the
  // inflation is where beta matters. Verify the direct formula instead.
  GdStarPolicy half(CostModelKind::kConstant, 0.5);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 4;
  a.reference_count = 1;  // utility 0.25 -> H = 0.0625
  CacheObject b;
  b.id = 2;
  b.slot = 2;
  b.size = 3;
  b.reference_count = 1;  // utility 0.333 -> H = 0.111
  half.on_insert(a);
  half.on_insert(b);
  EXPECT_EQ(half.evict(0), 1u);
  // Inflation L = 0.0625: a fresh doc with utility u enters at L + u^2.
  EXPECT_DOUBLE_EQ(half.inflation(), 0.0625);
}

TEST(GdStar, LargeBetaCompressesUtilitySpread) {
  // With beta = 2, utilities 0.25 and 0.0625 map to 0.5 and 0.25: the gap
  // shrinks so the inflation (recency) dominates sooner. Verify the H
  // values via inflation checkpoints.
  GdStarPolicy two(CostModelKind::kConstant, 2.0);
  CacheObject a;
  a.id = 1;
  a.slot = 1;
  a.size = 16;  // utility 1/16 -> sqrt = 0.25
  CacheObject b;
  b.id = 2;
  b.slot = 2;
  b.size = 4;  // utility 1/4 -> sqrt = 0.5
  two.on_insert(a);
  two.on_insert(b);
  EXPECT_EQ(two.evict(0), 1u);
  EXPECT_DOUBLE_EQ(two.inflation(), 0.25);
}

TEST(GdStar, FrequencyRewardsResidentDocument) {
  Cache cache(100,
              std::make_unique<GdStarPolicy>(CostModelKind::kConstant, 1.0));
  access_sized(cache, 1, 40);
  access_sized(cache, 2, 40);
  access_sized(cache, 1, 40);
  access_sized(cache, 1, 40);  // f(1) = 3
  access_sized(cache, 3, 40);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(GdStar, OnlineBetaLearnsFromHits) {
  // Feed a strongly correlated reference stream through a cache large
  // enough that every re-reference is a hit; the online estimator must move
  // away from its initial value.
  BetaEstimator::Options opts;
  opts.initial_beta = 1.0;
  opts.refit_interval = 512;
  opts.min_samples = 256;
  auto policy = std::make_unique<GdStarPolicy>(CostModelKind::kConstant,
                                               std::nullopt, opts);
  GdStarPolicy* policy_ptr = policy.get();
  Cache cache(1 << 20, std::move(policy));

  util::Rng rng(47);
  util::PowerLawGapDistribution gaps(256, 1.6);
  std::vector<ObjectId> history;
  for (int i = 0; i < 20000; ++i) {
    ObjectId id;
    if (!history.empty() && rng.chance(0.8)) {
      const auto gap =
          std::min<std::uint64_t>(gaps.sample(rng), history.size());
      id = history[history.size() - gap];
    } else {
      id = 1000000 + rng.below(100000);  // fresh document
    }
    history.push_back(id);
    cache.access(id, 10, trace::DocumentClass::kOther);
  }
  EXPECT_NE(policy_ptr->beta(), 1.0);
  EXPECT_GT(policy_ptr->beta(), 0.1);
  EXPECT_LE(policy_ptr->beta(), 2.0);
}

}  // namespace
}  // namespace webcache::cache
