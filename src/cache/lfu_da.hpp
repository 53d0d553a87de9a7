// Least Frequently Used with Dynamic Aging (paper, Section 3).
//
// "LFU-DA keeps a cache age [L], which is set to the [priority] of the last
//  evicted document. When putting a new document into cache or referencing
//  an old one, the cache age is added to the document's reference count."
//
// Priority: H(p) = L + f(p), where f(p) is the in-cache reference count and
// L is the inflation (cache age). Evict min H; on eviction L := H of the
// victim. This is the Arlitt/Cherkasova formulation used in Squid.
#pragma once

#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class LfuDaPolicy final : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  /// Pops the minimum; L rises to its priority.
  std::uint32_t evict(std::uint64_t incoming_size) override;
  /// A modification or invalidation removes the entry but leaves L alone:
  /// GreedyDual ages only on replacement.
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return "LFU-DA"; }
  void clear() override;

  /// Current cache age L (monotone non-decreasing); exposed for tests.
  double cache_age() const { return cache_age_; }

  PolicyProbe probe() const override {
    return {heap_.size(), cache_age_, std::nullopt};
  }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  IndexedMinHeap<double> heap_;  // priority = L_at_access + count
  double cache_age_ = 0.0;
};

}  // namespace webcache::cache
