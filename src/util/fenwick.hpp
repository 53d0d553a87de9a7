// Fenwick (binary indexed) tree over u64 weights: O(log n) point updates
// and prefix sums. The stack-distance profile counts the distinct documents
// touched between two references with it, and the sampled sweep sums the
// bytes above a document in its recency stack. (The generator's weighted
// draws use util::CountTree.)
//
// A negative delta is added as its two's complement and wraps around, so a
// prefix sum is exact whenever the live weights it covers sum below 2^64.
#pragma once

#include <cstdint>
#include <vector>

namespace webcache::util {

class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0), size_(n) {}

  std::size_t size() const { return size_; }
  std::uint64_t total() const { return prefix_sum(size_); }

  /// Adds delta to index i.
  void add(std::size_t i, std::uint64_t delta) {
    for (std::size_t j = i + 1; j <= size_; j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }
  /// Subtracts delta from index i (caller keeps weights >= 0).
  void sub(std::size_t i, std::uint64_t delta) {
    add(i, std::uint64_t{0} - delta);
  }

  /// Sum of weights [0, i).
  std::uint64_t prefix_sum(std::size_t i) const {
    std::uint64_t s = 0;
    for (std::size_t j = i; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

 private:
  std::vector<std::uint64_t> tree_;
  std::size_t size_;
};

}  // namespace webcache::util
