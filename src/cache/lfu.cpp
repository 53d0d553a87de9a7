#include "cache/lfu.hpp"

namespace webcache::cache {

void LfuPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, static_cast<double>(obj.reference_count));
}

void LfuPolicy::on_hit(const CacheObject& obj) {
  heap_.update(obj.slot, static_cast<double>(obj.reference_count));
}

std::uint32_t LfuPolicy::evict(std::uint64_t /*incoming_size*/) {
  return heap_.pop().key;
}

void LfuPolicy::clear() { heap_.clear(); }

}  // namespace webcache::cache
