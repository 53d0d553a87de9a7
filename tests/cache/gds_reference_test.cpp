// Validates the inflation-value implementation of GreedyDual-Size against
// a literal transcription of the published algorithm: "When a document has
// to be replaced, the victim p with H_min = min{H(p)} is chosen ...
// Subsequently, all H values are reduced by H_min." The two formulations
// must produce identical hit/miss sequences on arbitrary workloads.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "cache/cache.hpp"
#include "cache/greedy_dual.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

/// Naive GDS(1): O(n) per eviction, explicit global decrement, FIFO tie
/// break by insertion sequence — exactly the paper's pseudo-code.
class NaiveGds {
 public:
  explicit NaiveGds(std::uint64_t capacity) : capacity_(capacity) {}

  bool access(ObjectId id, std::uint64_t size) {
    const auto it = objects_.find(id);
    if (it != objects_.end()) {
      it->second.h = 1.0 / std::max<double>(1.0, static_cast<double>(size));
      return true;
    }
    if (size > capacity_) return false;  // bypass
    while (used_ + size > capacity_) {
      // Find H_min with FIFO tie break.
      ObjectId victim = 0;
      double h_min = 0;
      std::uint64_t oldest = 0;
      bool first = true;
      for (const auto& [oid, obj] : objects_) {
        if (first || obj.h < h_min ||
            (obj.h == h_min && obj.sequence < oldest)) {
          victim = oid;
          h_min = obj.h;
          oldest = obj.sequence;
          first = false;
        }
      }
      used_ -= objects_[victim].size;
      objects_.erase(victim);
      // "all H values are reduced by H_min".
      for (auto& [oid, obj] : objects_) obj.h -= h_min;
    }
    objects_[id] =
        Entry{1.0 / std::max<double>(1.0, static_cast<double>(size)), size,
              next_sequence_++};
    used_ += size;
    return false;
  }

 private:
  struct Entry {
    double h;
    std::uint64_t size;
    std::uint64_t sequence;
  };
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::unordered_map<ObjectId, Entry> objects_;
};

TEST(GdsReference, InflationImplementationMatchesGlobalDecrement) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    NaiveGds naive(2000);
    Cache fast(2000, std::make_unique<GdsPolicy>(CostModelKind::kConstant));
    for (int step = 0; step < 8000; ++step) {
      const ObjectId id = rng.below(120);
      // Deterministic size per id so re-inserts match. Power-of-two sizes
      // keep every H value an exact dyadic rational, so the decrement-based
      // and inflation-based arithmetic agree bit-for-bit and the comparison
      // is not at the mercy of unrelated floating-point rounding.
      const std::uint64_t size = 1ULL << (id % 8);
      const bool naive_hit = naive.access(id, size);
      const bool fast_hit =
          fast.access(id, size, trace::DocumentClass::kOther).kind ==
          Cache::AccessKind::kHit;
      ASSERT_EQ(naive_hit, fast_hit) << "seed " << seed << " step " << step;
    }
  }
}

TEST(GdsReference, MatchesOnAdversarialTies) {
  // All equal sizes force constant H values: pure tie-breaking territory.
  NaiveGds naive(10);
  Cache fast(10, std::make_unique<GdsPolicy>(CostModelKind::kConstant));
  util::Rng rng(42);
  for (int step = 0; step < 2000; ++step) {
    const ObjectId id = rng.below(30);
    const bool naive_hit = naive.access(id, 1);
    const bool fast_hit =
        fast.access(id, 1, trace::DocumentClass::kOther).kind ==
        Cache::AccessKind::kHit;
    ASSERT_EQ(naive_hit, fast_hit) << "step " << step;
  }
}

}  // namespace
}  // namespace webcache::cache
