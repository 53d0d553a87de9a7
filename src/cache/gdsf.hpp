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

  void reserve_ids(std::uint64_t universe) override {
    heap_.reserve_dense_keys(universe);
  }
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  using ReplacementPolicy::choose_victim;
  ObjectId choose_victim(std::uint64_t incoming_size) override;
  void on_evict(ObjectId id) override;
  /// A modification or invalidation removes the entry but leaves L alone:
  /// GreedyDual ages only on replacement.
  void on_erase(ObjectId id) override { heap_.erase(id); }
  std::string_view name() const override { return name_; }
  void clear() override;

  double inflation() const { return inflation_; }

  PolicyProbe probe() const override {
    return {heap_.size(), inflation_, std::nullopt};
  }

  void save_state(util::StateWriter& w) const override;
  void restore_state(util::StateReader& r) override;

 private:
  double value_of(const CacheObject& obj) const;

  IndexedMinHeap<ObjectId, double> heap_;
  std::unique_ptr<CostModel> cost_model_;
  std::string name_;
  double inflation_ = 0.0;
};

}  // namespace webcache::cache
