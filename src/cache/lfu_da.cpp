#include "cache/lfu_da.hpp"

namespace webcache::cache {

void LfuDaPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.id, cache_age_ + static_cast<double>(obj.reference_count));
}

void LfuDaPolicy::on_hit(const CacheObject& obj) {
  heap_.update(obj.id, cache_age_ + static_cast<double>(obj.reference_count));
}

ObjectId LfuDaPolicy::choose_victim(std::uint64_t /*incoming_size*/) { return heap_.top().key; }

void LfuDaPolicy::on_evict(ObjectId id) {
  // The cache age becomes the priority of the evicted document, so all
  // future insertions start at least as high as anything evicted so far.
  // Only replacement ages the cache: a modification that drops the current
  // minimum goes through on_erase and leaves the age alone, since raising
  // it there would change later victims.
  if (!heap_.empty() && heap_.top().key == id) {
    cache_age_ = heap_.top().priority;
  }
  heap_.erase(id);
}

void LfuDaPolicy::clear() {
  heap_.clear();
  cache_age_ = 0.0;
}

}  // namespace webcache::cache
