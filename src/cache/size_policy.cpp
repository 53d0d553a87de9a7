#include "cache/size_policy.hpp"

namespace webcache::cache {

void SizePolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, -static_cast<double>(obj.size));
}

std::uint32_t SizePolicy::evict(std::uint64_t /*incoming_size*/) {
  return heap_.pop().key;
}

void SizePolicy::clear() { heap_.clear(); }

}  // namespace webcache::cache
