#include "util/fenwick.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace webcache::util {
namespace {

TEST(Fenwick, EmptyTreeTotalsZero) {
  FenwickTree t(10);
  EXPECT_EQ(t.total(), 0.0);
  EXPECT_EQ(t.prefix_sum(10), 0.0);
}

TEST(Fenwick, BuildFromWeights) {
  FenwickTree t(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.total(), 10.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(0), 0.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(1), 1.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(2), 3.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(3), 6.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(4), 10.0);
}

TEST(Fenwick, SingleWeights) {
  FenwickTree t(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(t.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(t.weight(1), 2.0);
  EXPECT_DOUBLE_EQ(t.weight(2), 3.0);
}

TEST(Fenwick, AddUpdatesSums) {
  FenwickTree t(5);
  t.add(2, 10.0);
  t.add(4, 5.0);
  EXPECT_DOUBLE_EQ(t.total(), 15.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(3), 10.0);
  t.add(2, -10.0);
  EXPECT_DOUBLE_EQ(t.prefix_sum(3), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 5.0);
}

TEST(Fenwick, LargeTreeRandomizedConsistency) {
  Rng rng(13);
  const std::size_t n = 1000;
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.uniform(0, 10);
  FenwickTree t(weights);

  // Random mutations, checked against a reference prefix array.
  for (int round = 0; round < 200; ++round) {
    const auto idx = static_cast<std::size_t>(rng.below(n));
    const double delta = rng.uniform(-weights[idx], 5.0);
    weights[idx] += delta;
    t.add(idx, delta);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; i += 37) {
    acc = 0.0;
    for (std::size_t j = 0; j < i; ++j) acc += weights[j];
    EXPECT_NEAR(t.prefix_sum(i), acc, 1e-6);
  }
}

TEST(Fenwick, NonPowerOfTwoSizes) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 63u, 64u, 65u}) {
    std::vector<double> weights(n, 1.0);
    FenwickTree t(weights);
    EXPECT_DOUBLE_EQ(t.total(), static_cast<double>(n));
    EXPECT_DOUBLE_EQ(t.prefix_sum(n - 1), static_cast<double>(n - 1));
    EXPECT_DOUBLE_EQ(t.weight(n - 1), 1.0);
  }
}

}  // namespace
}  // namespace webcache::util
