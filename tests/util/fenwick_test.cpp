#include "util/fenwick.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace webcache::util {
namespace {

FenwickTree tree_of(const std::vector<std::uint64_t>& weights) {
  FenwickTree t(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) t.add(i, weights[i]);
  return t;
}

TEST(Fenwick, EmptyTreeTotalsZero) {
  FenwickTree t(10);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.prefix_sum(10), 0u);
}

TEST(Fenwick, BuildFromWeights) {
  const FenwickTree t = tree_of({1, 2, 3, 4});
  EXPECT_EQ(t.total(), 10u);
  EXPECT_EQ(t.prefix_sum(0), 0u);
  EXPECT_EQ(t.prefix_sum(1), 1u);
  EXPECT_EQ(t.prefix_sum(2), 3u);
  EXPECT_EQ(t.prefix_sum(3), 6u);
  EXPECT_EQ(t.prefix_sum(4), 10u);
}

TEST(Fenwick, SingleWeights) {
  const FenwickTree t = tree_of({1, 2, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t.prefix_sum(i + 1) - t.prefix_sum(i), i + 1);
  }
}

TEST(Fenwick, AddUpdatesSums) {
  FenwickTree t(5);
  t.add(2, 10);
  t.add(4, 5);
  EXPECT_EQ(t.total(), 15u);
  EXPECT_EQ(t.prefix_sum(3), 10u);
  t.sub(2, 10);
  EXPECT_EQ(t.prefix_sum(3), 0u);
  EXPECT_EQ(t.total(), 5u);
}

// A subtraction wraps around inside the tree's nodes, yet every prefix sum
// over non-negative live weights comes out exact, even near 2^64.
TEST(Fenwick, SubtractionWrapsAroundExactly) {
  constexpr std::uint64_t kBig = std::uint64_t{1} << 62;
  FenwickTree t(8);
  t.add(1, kBig);
  t.add(6, 3 * kBig - 1);
  t.sub(1, kBig);
  t.add(3, 7);
  EXPECT_EQ(t.prefix_sum(2), 0u);
  EXPECT_EQ(t.prefix_sum(4), 7u);
  EXPECT_EQ(t.total(), 3 * kBig + 6);
}

TEST(Fenwick, LargeTreeRandomizedConsistency) {
  Rng rng(13);
  const std::size_t n = 1000;
  std::vector<std::uint64_t> weights(n);
  for (auto& w : weights) w = rng.below(1000);
  FenwickTree t = tree_of(weights);

  // Random mutations, checked against a reference prefix array.
  for (int round = 0; round < 200; ++round) {
    const auto idx = static_cast<std::size_t>(rng.below(n));
    if (rng.below(2) == 0) {
      const std::uint64_t delta = rng.below(weights[idx] + 1);
      weights[idx] -= delta;
      t.sub(idx, delta);
    } else {
      const std::uint64_t delta = rng.below(500);
      weights[idx] += delta;
      t.add(idx, delta);
    }
  }
  for (std::size_t i = 0; i < n; i += 37) {
    std::uint64_t acc = 0;
    for (std::size_t j = 0; j < i; ++j) acc += weights[j];
    EXPECT_EQ(t.prefix_sum(i), acc);
  }
}

TEST(Fenwick, NonPowerOfTwoSizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 63u, 64u, 65u}) {
    const FenwickTree t = tree_of(std::vector<std::uint64_t>(n, 1));
    EXPECT_EQ(t.total(), n);
    EXPECT_EQ(t.prefix_sum(n - 1), n - 1);
    EXPECT_EQ(t.prefix_sum(n) - t.prefix_sum(n - 1), 1u);
  }
}

}  // namespace
}  // namespace webcache::util
