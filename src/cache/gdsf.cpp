#include "cache/gdsf.hpp"

#include <algorithm>

namespace webcache::cache {

GdsfPolicy::GdsfPolicy(CostModelKind cost_model)
    : cost_model_(make_cost_model(cost_model)) {
  name_ = "GDSF(" + std::string(cost_model_suffix(cost_model)) + ")";
}

double GdsfPolicy::value_of(const CacheObject& obj) const {
  const double size = std::max<double>(1.0, static_cast<double>(obj.size));
  return static_cast<double>(obj.reference_count) *
         cost_model_->cost(obj.size) / size;
}

void GdsfPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, inflation_ + value_of(obj));
}

void GdsfPolicy::on_hit(const CacheObject& obj) {
  heap_.update(obj.slot, inflation_ + value_of(obj));
}

std::uint32_t GdsfPolicy::evict(std::uint64_t /*incoming_size*/) {
  const auto victim = heap_.pop();
  inflation_ = victim.priority;
  return victim.key;
}

void GdsfPolicy::clear() {
  heap_.clear();
  inflation_ = 0.0;
}

}  // namespace webcache::cache
