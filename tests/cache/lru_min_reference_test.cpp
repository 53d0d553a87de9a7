// Differential test for LRU-MIN: the production implementation (a max-tree
// of sizes over recency positions, O(log n) victim selection) must make
// exactly the same decisions as a literal transcription of the algorithm
// (single recency list, full scan from the cold end, threshold halving).
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "cache/cache.hpp"
#include "cache/lru_variants.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

/// The naive formulation: O(n) scans, unmistakably correct.
class NaiveLruMin {
 public:
  explicit NaiveLruMin(std::uint64_t capacity) : capacity_(capacity) {}

  bool access(ObjectId id, std::uint64_t size) {
    const auto it = where_.find(id);
    if (it != where_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (size > capacity_) return false;
    while (used_ + size > capacity_) {
      std::uint64_t threshold = size;
      ObjectId victim = 0;
      for (;;) {
        bool found = false;
        for (auto rit = order_.rbegin(); rit != order_.rend(); ++rit) {
          if (rit->size >= threshold) {
            victim = rit->id;
            found = true;
            break;
          }
        }
        if (found) break;
        threshold /= 2;
      }
      const auto vit = where_.find(victim);
      used_ -= vit->second->size;
      order_.erase(vit->second);
      where_.erase(vit);
    }
    order_.push_front(Entry{id, size});
    where_[id] = order_.begin();
    used_ += size;
    return false;
  }

 private:
  struct Entry {
    ObjectId id;
    std::uint64_t size;
  };
  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> order_;  // front = MRU
  std::unordered_map<ObjectId, std::list<Entry>::iterator> where_;
};

TEST(LruMinReference, BucketedMatchesNaiveOnRandomWorkloads) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    NaiveLruMin naive(5000);
    Cache fast(5000, std::make_unique<LruMinPolicy>());
    for (int step = 0; step < 8000; ++step) {
      const ObjectId id = rng.below(150);
      // Deterministic size per id, spanning several size classes including
      // exact powers of two (the boundary-bucket edge).
      const std::uint64_t size = 1 + (id * id * 131) % 2048;
      const bool naive_hit = naive.access(id, size);
      const bool fast_hit =
          fast.access(id, size, trace::DocumentClass::kOther).kind ==
          Cache::AccessKind::kHit;
      ASSERT_EQ(naive_hit, fast_hit) << "seed " << seed << " step " << step;
    }
  }
}

TEST(LruMinReference, MatchesWithOversizedArrivals) {
  // Incoming sizes larger than anything resident: the halving loop is the
  // only path to a victim; both implementations must walk it identically.
  util::Rng rng(7);
  NaiveLruMin naive(1000);
  Cache fast(1000, std::make_unique<LruMinPolicy>());
  for (int step = 0; step < 3000; ++step) {
    const ObjectId id = rng.below(60);
    const std::uint64_t size = (id % 5 == 0) ? 900 : 1 + (id * 37) % 50;
    const bool naive_hit = naive.access(id, size);
    const bool fast_hit =
        fast.access(id, size, trace::DocumentClass::kOther).kind ==
        Cache::AccessKind::kHit;
    ASSERT_EQ(naive_hit, fast_hit) << "step " << step;
  }
}

TEST(LruMinReference, MatchesOnPowerOfTwoThresholds) {
  // Thresholds exactly at bucket boundaries exercise the all-qualify
  // shortcut in oldest_at_least.
  util::Rng rng(11);
  NaiveLruMin naive(4096);
  Cache fast(4096, std::make_unique<LruMinPolicy>());
  for (int step = 0; step < 4000; ++step) {
    const ObjectId id = rng.below(100);
    const std::uint64_t size = 1ULL << (id % 10);
    const bool naive_hit = naive.access(id, size);
    const bool fast_hit =
        fast.access(id, size, trace::DocumentClass::kOther).kind ==
        Cache::AccessKind::kHit;
    ASSERT_EQ(naive_hit, fast_hit) << "step " << step;
  }
}

}  // namespace
}  // namespace webcache::cache
