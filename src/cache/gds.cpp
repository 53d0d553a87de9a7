#include "cache/gds.hpp"

#include <algorithm>

namespace webcache::cache {

GdsPolicy::GdsPolicy(CostModelKind cost_model)
    : cost_model_(make_cost_model(cost_model)) {
  name_ = "GDS(" + std::string(cost_model_suffix(cost_model)) + ")";
}

double GdsPolicy::value_of(const CacheObject& obj) const {
  // Guard the degenerate size-0 document (e.g. 304 bodies): treat as 1 byte
  // so the utility stays finite; such objects occupy no capacity anyway.
  const double size = std::max<double>(1.0, static_cast<double>(obj.size));
  return cost_model_->cost(obj.size) / size;
}

void GdsPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, inflation_ + value_of(obj));
}

void GdsPolicy::on_hit(const CacheObject& obj) {
  // Restore the full value on top of the *current* inflation: documents not
  // referenced since their last H assignment decay relative to this one.
  heap_.update(obj.slot, inflation_ + value_of(obj));
}

std::uint32_t GdsPolicy::evict(std::uint64_t /*incoming_size*/) {
  const auto victim = heap_.pop();
  inflation_ = victim.priority;
  return victim.key;
}

void GdsPolicy::clear() {
  heap_.clear();
  inflation_ = 0.0;
}

}  // namespace webcache::cache
