// Plain Least Frequently Used (in-cache frequency, no aging).
//
// Kept as the baseline that motivates LFU-DA: without aging, objects that
// were popular long ago pollute the cache ("cache pollution", Section 3).
// Ties (equal counts) break FIFO.
#pragma once

#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class LfuPolicy final : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return "LFU"; }
  void clear() override;


  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  IndexedMinHeap<double> heap_;  // priority = reference count
};

}  // namespace webcache::cache
