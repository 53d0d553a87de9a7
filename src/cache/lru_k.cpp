#include "cache/lru_k.hpp"

#include <stdexcept>

namespace webcache::cache {

namespace {

// Sub-zero band for objects with no known second access: ordered by the
// single access, strictly below every real clock value. Clocks stay far
// below 2^52, so the mapping is collision-free in double.
double one_timer_priority(std::uint64_t last_access) {
  return -1.0e15 + static_cast<double>(last_access);
}

}  // namespace

LruKPolicy::LruKPolicy(std::size_t history_limit)
    : history_limit_(history_limit) {
  if (history_limit == 0) {
    throw std::invalid_argument("LruKPolicy: history_limit must be > 0");
  }
}

void LruKPolicy::on_insert(const CacheObject& obj) {
  double priority;
  const auto it = history_.find(obj.id);
  if (it != history_.end()) {
    // The retained access becomes the penultimate one.
    priority = static_cast<double>(it->second);
    history_.erase(it);
  } else {
    priority = one_timer_priority(obj.last_access);
  }
  heap_.push(obj.slot, priority);
  slot_entry(resident_, obj.slot) = Resident{obj.id, obj.last_access};
}

void LruKPolicy::on_hit(const CacheObject& obj) {
  // previous_access is the second-most-recent reference (the container
  // updates it before this hook).
  heap_.update(obj.slot, static_cast<double>(obj.previous_access));
  resident_[obj.slot].last_access = obj.last_access;
}

std::uint32_t LruKPolicy::evict(std::uint64_t /*incoming_size*/) {
  const std::uint32_t victim = heap_.top().key;
  remove(victim);
  return victim;
}

void LruKPolicy::on_erase(const CacheObject& obj) { remove(obj.slot); }

void LruKPolicy::remove(std::uint32_t slot) {
  heap_.erase(slot);
  remember(resident_[slot].id, resident_[slot].last_access);
}

void LruKPolicy::remember(ObjectId id, std::uint64_t last_access) {
  history_[id] = last_access;
  history_fifo_.emplace_back(id, last_access);
  prune_history();
}

void LruKPolicy::prune_history() {
  while (history_.size() > history_limit_ && !history_fifo_.empty()) {
    const auto& [id, stamp] = history_fifo_.front();
    const auto it = history_.find(id);
    // Drop only if this FIFO entry still describes the live record (the id
    // may have been re-evicted with a newer stamp since).
    if (it != history_.end() && it->second == stamp) history_.erase(it);
    history_fifo_.pop_front();
  }
}

void LruKPolicy::clear() {
  heap_.clear();
  resident_.clear();
  history_.clear();
  history_fifo_.clear();
}

}  // namespace webcache::cache
