#include "cache/gdstar_class.hpp"

#include <algorithm>
#include <cmath>

namespace webcache::cache {

namespace {

std::array<BetaEstimator, trace::kDocumentClassCount> make_estimators(
    const BetaEstimator::Options& options) {
  // Per-class gap volumes are far smaller than the global stream's, so the
  // estimators refit more eagerly than the global GD* default.
  BetaEstimator::Options per_class = options;
  per_class.refit_interval = std::max<std::uint64_t>(
      256, options.refit_interval / trace::kDocumentClassCount);
  per_class.min_samples =
      std::max<std::uint64_t>(64, options.min_samples / 2);
  return {BetaEstimator(per_class), BetaEstimator(per_class),
          BetaEstimator(per_class), BetaEstimator(per_class),
          BetaEstimator(per_class)};
}

}  // namespace

GdStarPerClassPolicy::GdStarPerClassPolicy(
    CostModelKind cost_model, BetaEstimator::Options estimator_options)
    : cost_model_(make_cost_model(cost_model)),
      estimators_(make_estimators(estimator_options)) {
  name_ = "GD*C(" + std::string(cost_model_suffix(cost_model)) + ")";
}

double GdStarPerClassPolicy::value_of(const CacheObject& obj) const {
  const double size = std::max<double>(1.0, static_cast<double>(obj.size));
  const double utility = static_cast<double>(obj.reference_count) *
                         cost_model_->cost(obj.size) / size;
  return std::pow(
      utility,
      estimators_[static_cast<std::size_t>(obj.doc_class)].exponent());
}

void GdStarPerClassPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, inflation_ + value_of(obj));
}

void GdStarPerClassPolicy::on_hit(const CacheObject& obj) {
  if (obj.last_access > obj.previous_access) {
    estimators_[static_cast<std::size_t>(obj.doc_class)].observe_gap(
        obj.last_access - obj.previous_access);
  }
  heap_.update(obj.slot, inflation_ + value_of(obj));
}

std::uint32_t GdStarPerClassPolicy::evict(std::uint64_t /*incoming_size*/) {
  const auto victim = heap_.pop();
  inflation_ = victim.priority;
  return victim.key;
}

void GdStarPerClassPolicy::clear() {
  heap_.clear();
  for (auto& estimator : estimators_) estimator.clear();
  inflation_ = 0.0;
}

}  // namespace webcache::cache
