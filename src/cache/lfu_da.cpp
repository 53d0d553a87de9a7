#include "cache/lfu_da.hpp"

namespace webcache::cache {

void LfuDaPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, cache_age_ + static_cast<double>(obj.reference_count));
}

void LfuDaPolicy::on_hit(const CacheObject& obj) {
  heap_.update(obj.slot, cache_age_ + static_cast<double>(obj.reference_count));
}

std::uint32_t LfuDaPolicy::evict(std::uint64_t /*incoming_size*/) {
  // The cache age becomes the priority of the evicted document, so all
  // future insertions start at least as high as anything evicted so far.
  const auto victim = heap_.pop();
  cache_age_ = victim.priority;
  return victim.key;
}

void LfuDaPolicy::clear() {
  heap_.clear();
  cache_age_ = 0.0;
}

}  // namespace webcache::cache
