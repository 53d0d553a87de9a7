// 16-ary sum tree over non-negative integer counts with prefix-sum
// sampling. The synthetic generator draws each popularity-source document
// proportionally to its *remaining* reference count — weighted sampling
// without replacement over millions of documents.
//
// The leaves are the u32 counts themselves and every internal node holds
// the u64 sum of its (up to) 16 children, so one draw reads one or two
// cache lines per level and a 3 M-document class is 6 levels deep. Every
// sum is an exact integer, so `find` is exact: it returns the same index
// as a linear scan of the prefix sums, whatever the order of the updates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace webcache::util {

class CountTree {
 public:
  static constexpr std::size_t kFanout = 16;

  explicit CountTree(std::vector<std::uint32_t> counts)
      : leaves_(std::move(counts)) {
    // levels_[0] sums groups of 16 leaves, levels_[k] groups of 16 entries
    // of levels_[k-1]; the last level has at most 16 entries.
    std::size_t width = leaves_.size();
    while (width > kFanout) {
      width = (width + kFanout - 1) / kFanout;
      levels_.emplace_back(width, 0);
    }
    for (std::size_t i = 0; i < leaves_.size(); ++i) {
      total_ += leaves_[i];
      std::size_t node = i;
      for (std::vector<std::uint64_t>& level : levels_) {
        node /= kFanout;
        level[node] += leaves_[i];
      }
    }
  }

  std::size_t size() const { return leaves_.size(); }
  std::uint64_t total() const { return total_; }
  std::uint32_t count(std::size_t i) const { return leaves_[i]; }

  /// Takes one unit from index i. Requires count(i) > 0.
  void decrement(std::size_t i) {
    --leaves_[i];
    for (std::vector<std::uint64_t>& level : levels_) {
      i /= kFanout;
      --level[i];
    }
    --total_;
  }

  /// The index whose cumulative range holds `target`: the largest i with
  /// prefix(i) <= target, where prefix(i) is the sum of counts [0, i). It
  /// never returns a zero-count index unless target >= total(), where it
  /// clamps to size() - 1. Requires total() > 0.
  std::size_t find(std::uint64_t target) const {
    if (total_ == 0) {
      throw std::logic_error("CountTree: sampling from empty tree");
    }
    // Within each group, skip the children whose whole sum lies at or
    // below the target; the last child of a group is never skipped, so a
    // target >= total() walks the rightmost path down to size() - 1.
    std::size_t node = 0;
    for (std::size_t k = levels_.size(); k-- > 0;) {
      node = pick_child(levels_[k], node * kFanout, target);
    }
    return pick_child(leaves_, node * kFanout, target);
  }

 private:
  template <typename Sums>
  static std::size_t pick_child(const Sums& sums, std::size_t first,
                                std::uint64_t& target) {
    const std::size_t last = std::min(first + kFanout, sums.size()) - 1;
    std::size_t i = first;
    while (i < last && sums[i] <= target) {
      target -= sums[i];
      ++i;
    }
    return i;
  }

  std::vector<std::uint32_t> leaves_;
  std::vector<std::vector<std::uint64_t>> levels_;
  std::uint64_t total_ = 0;
};

}  // namespace webcache::util
