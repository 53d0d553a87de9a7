#include "cache/random.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "policy_test_util.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

TEST(Random, VictimIsAlwaysResident) {
  Cache cache = unit_cache(std::make_unique<RandomPolicy>(), 4);
  util::Rng rng(11);
  for (int step = 0; step < 5000; ++step) {
    access(cache, rng.below(64));
    ASSERT_LE(cache.object_count(), 4u);
    if (step % 500 == 0) {
      ASSERT_TRUE(cache.check_invariants());
    }
  }
}

TEST(Random, SameSeedPicksTheSameVictims) {
  auto run = [](std::uint64_t seed) {
    Cache cache = unit_cache(std::make_unique<RandomPolicy>(seed), 8);
    util::Rng rng(42);
    std::vector<bool> outcomes;
    for (int step = 0; step < 4000; ++step) {
      outcomes.push_back(access(cache, rng.below(100)));
    }
    return outcomes;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6)) << "different seeds should diverge somewhere";
}

TEST(Random, ClearRestartsTheDrawStream) {
  // clear() re-seeds, so a reset run replays the exact victim sequence.
  RandomPolicy policy(77);
  auto drive = [&] {
    std::vector<std::uint32_t> victims;
    for (std::uint32_t slot = 0; slot < 16; ++slot) {
      CacheObject obj;
      obj.id = slot;
      obj.slot = slot;
      policy.on_insert(obj);
    }
    for (int i = 0; i < 8; ++i) victims.push_back(policy.evict(0));
    policy.clear();
    return victims;
  };
  EXPECT_EQ(drive(), drive());
}

TEST(Random, DenseAndSparseIndicesAgree) {
  // Same seed, same accesses: a cache whose object table indexes ids with a
  // flat array and one that hashes them assign the same slots, so RANDOM
  // (which sees only slots) draws the same victims.
  struct Victims final : RemovalListener {
    std::vector<ObjectId> ids;
    void on_removal(const CacheObject& obj, RemovalCause) override {
      ids.push_back(obj.id);
    }
  };
  Cache sparse = unit_cache(std::make_unique<RandomPolicy>(3), 40);
  Cache dense = unit_cache(std::make_unique<RandomPolicy>(3), 40);
  dense.reserve_dense_ids(64);
  Victims sparse_victims;
  Victims dense_victims;
  sparse.set_removal_listener(&sparse_victims);
  dense.set_removal_listener(&dense_victims);
  util::Rng rng(8);
  for (int step = 0; step < 2000; ++step) {
    const ObjectId id = rng.below(64);
    ASSERT_EQ(access(sparse, id), access(dense, id)) << "step " << step;
  }
  EXPECT_GT(sparse_victims.ids.size(), 100u);
  EXPECT_EQ(sparse_victims.ids, dense_victims.ids);
}

TEST(Random, PolicyRejectsProtocolViolations) {
  RandomPolicy policy;
  CacheObject obj;
  obj.id = 1;
  obj.slot = 1;
  policy.on_insert(obj);
  EXPECT_THROW(policy.on_insert(obj), std::logic_error);
  CacheObject absent;
  absent.id = 2;
  absent.slot = 2;
  EXPECT_THROW(policy.on_erase(absent), std::logic_error);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_THROW(policy.evict(0), std::logic_error);
}

TEST(Random, NameAndSeedAccessor) {
  EXPECT_EQ(RandomPolicy().name(), "RANDOM");
  EXPECT_EQ(RandomPolicy(123).seed(), 123u);
}

}  // namespace
}  // namespace webcache::cache
