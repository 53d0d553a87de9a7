// Fenwick (binary indexed) tree over weights: O(log n) point updates and
// prefix sums. The stack-distance profile uses it to count the distinct
// documents touched between two references. (The generator's weighted
// draws use util::CountTree.)
#pragma once

#include <cstdint>
#include <vector>

namespace webcache::util {

class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : tree_(n + 1, 0.0), size_(n) {}

  /// Builds from initial weights in O(n).
  explicit FenwickTree(const std::vector<double>& weights)
      : FenwickTree(weights.size()) {
    for (std::size_t i = 0; i < weights.size(); ++i) add(i, weights[i]);
  }

  std::size_t size() const { return size_; }
  double total() const { return prefix_sum(size_); }

  /// Adds delta to index i (may be negative; caller keeps weights >= 0).
  void add(std::size_t i, double delta) {
    for (std::size_t j = i + 1; j <= size_; j += j & (~j + 1)) {
      tree_[j] += delta;
    }
  }

  /// Sum of weights [0, i).
  double prefix_sum(std::size_t i) const {
    double s = 0.0;
    for (std::size_t j = i; j > 0; j -= j & (~j + 1)) s += tree_[j];
    return s;
  }

  /// Weight of a single index.
  double weight(std::size_t i) const {
    return prefix_sum(i + 1) - prefix_sum(i);
  }

 private:
  std::vector<double> tree_;
  std::size_t size_;
};

}  // namespace webcache::util
