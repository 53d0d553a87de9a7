// GreedyDual* (Jin & Bestavros, Computer Communications 2000; paper,
// Section 3).
//
// "GD* sets the value of H for a document p to
//      H(p) = L + ( f(p) * c(p) / s(p) )^(1/beta)
//  where f(p) is the reference count of the document. The parameter beta
//  characterizes the temporal correlation between successive references ...
//  The novel feature of GD* is that f(p) and beta can be calculated in an
//  on-line fashion, which makes the algorithm adaptive."
//
// beta < 1 (weak temporal correlation) amplifies the utility spread, making
// the policy more frequency-driven; beta -> 1 recovers GDSF; beta > 1
// (strong correlation) compresses utilities so recency (via the inflation
// L) dominates — exactly the popularity-vs-correlation trade the paper
// studies per document type.
#pragma once

#include <optional>

#include "cache/beta_estimator.hpp"
#include "cache/cost_model.hpp"
#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class GdStarPolicy final : public ReplacementPolicy {
 public:
  /// With fixed_beta set, the online estimator is disabled and the given
  /// exponent is used throughout (the ablation configuration; fixed_beta = 1
  /// makes GD* coincide with GDSF).
  explicit GdStarPolicy(CostModelKind cost_model,
                        std::optional<double> fixed_beta = std::nullopt,
                        BetaEstimator::Options estimator_options = {});

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
  /// The exponent currently in effect.
  double beta() const;

  PolicyProbe probe() const override {
    return {heap_.size(), inflation_, beta()};
  }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  double value_of(const CacheObject& obj) const;

  IndexedMinHeap<double> heap_;
  std::unique_ptr<CostModel> cost_model_;
  std::optional<double> fixed_beta_;
  double fixed_exponent_;  // 1 / *fixed_beta_, when set
  BetaEstimator estimator_;
  std::string name_;
  double inflation_ = 0.0;
};

}  // namespace webcache::cache
