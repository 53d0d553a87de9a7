// SIZE policy (Williams et al., 1996): evict the largest resident document.
//
// The classic size-aware baseline that GDS generalizes; included for the
// extended comparison benchmarks. Ties (equal sizes) break FIFO.
#pragma once

#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class SizePolicy final : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& /*obj*/) override {}  // size never changes
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return "SIZE"; }
  void clear() override;

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  // Min-heap over negated size = max-heap over size.
  IndexedMinHeap<double> heap_;
};

}  // namespace webcache::cache
