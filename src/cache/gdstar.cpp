#include "cache/gdstar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace webcache::cache {

GdStarPolicy::GdStarPolicy(CostModelKind cost_model,
                           std::optional<double> fixed_beta,
                           BetaEstimator::Options estimator_options)
    : cost_model_(make_cost_model(cost_model)),
      fixed_beta_(fixed_beta),
      fixed_exponent_(fixed_beta ? 1.0 / *fixed_beta : 0.0),
      estimator_(estimator_options) {
  if (fixed_beta && *fixed_beta <= 0.0) {
    throw std::invalid_argument("GdStarPolicy: fixed beta must be > 0");
  }
  name_ = "GD*(" + std::string(cost_model_suffix(cost_model)) + ")";
  if (fixed_beta) {
    name_ += " [beta=" + std::to_string(*fixed_beta) + "]";
  }
}

double GdStarPolicy::beta() const {
  return fixed_beta_ ? *fixed_beta_ : estimator_.beta();
}

double GdStarPolicy::value_of(const CacheObject& obj) const {
  const double size = std::max<double>(1.0, static_cast<double>(obj.size));
  const double utility = static_cast<double>(obj.reference_count) *
                         cost_model_->cost(obj.size) / size;
  return std::pow(utility,
                  fixed_beta_ ? fixed_exponent_ : estimator_.exponent());
}

void GdStarPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, inflation_ + value_of(obj));
}

void GdStarPolicy::on_hit(const CacheObject& obj) {
  // Feed the online beta estimator with the inter-reference gap in requests
  // (the container updates last/previous access before this hook).
  if (!fixed_beta_ && obj.last_access > obj.previous_access) {
    estimator_.observe_gap(obj.last_access - obj.previous_access);
  }
  heap_.update(obj.slot, inflation_ + value_of(obj));
}

std::uint32_t GdStarPolicy::evict(std::uint64_t /*incoming_size*/) {
  const auto victim = heap_.pop();
  inflation_ = victim.priority;
  return victim.key;
}

void GdStarPolicy::clear() {
  heap_.clear();
  estimator_.clear();
  inflation_ = 0.0;
}

}  // namespace webcache::cache
