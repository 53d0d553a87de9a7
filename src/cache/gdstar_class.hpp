// GD* with per-document-class temporal-correlation estimation — the design
// fix the paper's own analysis suggests.
//
// Section 4.4 explains why GD*(packet) loses its edge on the RTP trace:
// "The slopes beta of the distribution of temporal correlation for HTML,
// multi media, and application documents are much bigger than the overall
// slope of the distribution of temporal correlation, which is dominated by
// the slope of image documents. This causes additional errors in
// replacement decisions performed by GD*(packet)."
//
// Standard GD* runs ONE online beta estimator over the whole request
// stream; because images dominate the stream, the estimate is essentially
// the image beta, which mis-ages every other class. This variant keeps an
// independent estimator per document class and exponentiates each
// document's utility with its own class's 1/beta:
//
//     H(p) = L + ( f(p) * c(p) / s(p) ) ^ (1 / beta_class(p))
//
// bench/ext_per_class_beta quantifies what the fix is worth on both traces.
#pragma once

#include <array>

#include "cache/beta_estimator.hpp"
#include "cache/cost_model.hpp"
#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class GdStarPerClassPolicy final : public ReplacementPolicy {
 public:
  explicit GdStarPerClassPolicy(CostModelKind cost_model,
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
  /// Current estimate for one class (initial value until enough gaps).
  double beta(trace::DocumentClass c) const {
    return estimators_[static_cast<std::size_t>(c)].beta();
  }

  /// There is no single beta here (one estimator per class; use beta(c)),
  /// so the probe carries only the shared inflation and the heap size.
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
  std::array<BetaEstimator, trace::kDocumentClassCount> estimators_;
  std::string name_;
  double inflation_ = 0.0;
};

}  // namespace webcache::cache
