// GreedyDual-Size (Cao & Irani, USITS 1997; paper, Section 3).
//
// On insert or hit: H(p) = L + c(p) / s(p). Evict min H; on eviction the
// inflation L rises to the victim's H. The inflation replaces the paper's
// "subtract H_min from every H" step with an equivalent O(log n) scheme
// (identical eviction order, as proved in Cao & Irani's implementation
// note and exercised by our tests).
//
// With c(p) = 1 this is the paper's GDS(1); with the packet cost model it
// is GDS(packet).
#pragma once

#include "cache/cost_model.hpp"
#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class GdsPolicy final : public ReplacementPolicy {
 public:
  explicit GdsPolicy(CostModelKind cost_model);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  /// Pops the minimum; L rises to its priority.
  std::uint32_t evict(std::uint64_t incoming_size) override;
  /// A modification or invalidation removes the entry but leaves L alone:
  /// GreedyDual ages only on replacement.
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return name_; }
  void clear() override;

  double inflation() const { return inflation_; }

  PolicyProbe probe() const override {
    return {heap_.size(), inflation_, std::nullopt};
  }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  double value_of(const CacheObject& obj) const;

  IndexedMinHeap<double> heap_;
  std::unique_ptr<CostModel> cost_model_;
  std::string name_;
  double inflation_ = 0.0;  // the running L
};

}  // namespace webcache::cache
