#include "util/count_tree.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace webcache::util {
namespace {

// The reference: the largest i with sum(counts[0, i)) <= target, clamped
// to the last index when target >= the total — the linear scan CountTree
// must agree with exactly.
std::size_t linear_find(const std::vector<std::uint32_t>& counts,
                        std::uint64_t target) {
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    prefix += counts[i];
    if (prefix > target) return i;
  }
  return counts.size() - 1;
}

std::uint64_t sum_of(const std::vector<std::uint32_t>& counts) {
  std::uint64_t total = 0;
  for (const std::uint32_t c : counts) total += c;
  return total;
}

// Checks find() at every exact boundary of the prefix sums, one below each,
// at 0 and past the total.
void expect_matches_linear_scan(const CountTree& tree,
                                const std::vector<std::uint32_t>& counts) {
  const std::uint64_t total = sum_of(counts);
  ASSERT_EQ(tree.total(), total);
  std::vector<std::uint64_t> targets = {0, total, total + 1, total * 2 + 7};
  std::uint64_t prefix = 0;
  for (const std::uint32_t c : counts) {
    prefix += c;
    targets.push_back(prefix);
    if (prefix > 0) targets.push_back(prefix - 1);
  }
  for (const std::uint64_t t : targets) {
    ASSERT_EQ(tree.find(t), linear_find(counts, t)) << "target " << t;
  }
}

TEST(CountTree, FindSelectsByCumulativeWeight) {
  const CountTree t({1, 0, 2, 3});
  // Cumulative boundaries: [0,1) -> 0, [1,3) -> 2, [3,6) -> 3.
  EXPECT_EQ(t.find(0), 0u);
  EXPECT_EQ(t.find(1), 2u);
  EXPECT_EQ(t.find(2), 2u);
  EXPECT_EQ(t.find(3), 3u);
  EXPECT_EQ(t.find(5), 3u);
  // Past the total it clamps to the last index.
  EXPECT_EQ(t.find(6), 3u);
}

TEST(CountTree, FindNeverReturnsZeroWeightIndex) {
  const CountTree t({0, 5, 0, 5, 0});
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t idx = t.find(rng.below(t.total()));
    EXPECT_TRUE(idx == 1 || idx == 3) << idx;
  }
}

TEST(CountTree, FindOnEmptyThrows) {
  EXPECT_THROW(CountTree(std::vector<std::uint32_t>(4, 0)).find(0),
               std::logic_error);
  EXPECT_THROW(CountTree(std::vector<std::uint32_t>{}).find(0),
               std::logic_error);
}

TEST(CountTree, SamplingFrequenciesMatchWeights) {
  const CountTree t({7, 2, 1});
  Rng rng(9);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t.find(rng.below(t.total()))];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.7, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.1, 0.01);
}

TEST(CountTree, SamplingWithoutReplacementDrainsExactly) {
  // The generator's core loop: draw, decrement, repeat until empty.
  const std::vector<std::uint32_t> initial = {3, 1, 4, 1, 5};
  CountTree t(initial);
  std::vector<std::uint32_t> drawn(initial.size(), 0);
  Rng rng(11);
  while (t.total() > 0) {
    const std::size_t idx = t.find(rng.below(t.total()));
    ASSERT_GT(t.count(idx), 0u);
    ++drawn[idx];
    t.decrement(idx);
  }
  EXPECT_EQ(drawn, initial);
  EXPECT_THROW(t.find(0), std::logic_error);
}

TEST(CountTree, SizesAroundEachFanoutLevel) {
  for (const std::size_t n :
       {1u, 2u, 15u, 16u, 17u, 255u, 256u, 257u, 4095u, 4096u, 4097u}) {
    std::vector<std::uint32_t> counts(n);
    for (std::size_t i = 0; i < n; ++i) {
      counts[i] = static_cast<std::uint32_t>(i % 3);  // every third is zero
    }
    counts[n - 1] = 1;  // the total is never zero
    const CountTree t(counts);
    EXPECT_EQ(t.size(), n);
    expect_matches_linear_scan(t, counts);
  }
}

TEST(CountTree, FindMatchesLinearScanWhileDrainingToEmpty) {
  // Random counts with long zero runs (whole 16-leaf groups and 256-leaf
  // subtrees empty), drained by generator-style draws; after every few
  // draws every boundary is checked against the linear scan.
  Rng rng(13);
  std::vector<std::uint32_t> counts(1000);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const bool zero_run = (i / 16) % 5 == 1 || (i >= 512 && i < 768);
    counts[i] = zero_run ? 0 : static_cast<std::uint32_t>(rng.below(4));
  }
  CountTree t(counts);
  std::size_t draws = 0;
  while (t.total() > 0) {
    if (draws++ % 97 == 0) expect_matches_linear_scan(t, counts);
    const std::uint64_t target = rng.below(t.total());
    const std::size_t idx = t.find(target);
    ASSERT_EQ(idx, linear_find(counts, target));
    ASSERT_GT(counts[idx], 0u);
    --counts[idx];
    t.decrement(idx);
    ASSERT_EQ(t.count(idx), counts[idx]);
  }
  EXPECT_EQ(sum_of(counts), 0u);
}

TEST(CountTree, FindIsExactForLargeCounts) {
  // Counts near 2^32 make internal sums pass 2^32 and 2^40; u64 sums keep
  // every boundary exact.
  std::vector<std::uint32_t> counts(300, 0xFFFFFFF0u);
  counts[17] = 0;
  counts[200] = 1;
  const CountTree t(counts);
  expect_matches_linear_scan(t, counts);
}

}  // namespace
}  // namespace webcache::util
