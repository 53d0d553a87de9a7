// GreedyDual-Size with Frequency (Arlitt, Cherkasova et al.; deployed in
// Squid). H(p) = L + f(p) * c(p) / s(p).
//
// Not one of the paper's four schemes, but the natural midpoint between GDS
// (no frequency) and GD* (frequency raised to 1/beta); used by the ablation
// benchmarks — GD* with beta fixed at 1 must behave identically to GDSF.
#pragma once

#include "cache/cost_model.hpp"
#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class GdsfPolicy final : public ReplacementPolicy {
 public:
  explicit GdsfPolicy(CostModelKind cost_model);

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
  double inflation_ = 0.0;
};

}  // namespace webcache::cache
