#include "cache/clock.hpp"

#include <stdexcept>

namespace webcache::cache {

SecondChancePolicy::SecondChancePolicy(std::uint32_t counter_max)
    : counter_max_(counter_max) {
  if (counter_max == 0) {
    throw std::invalid_argument("SecondChancePolicy: counter max must be >= 1");
  }
}

void SecondChancePolicy::reserve_ids(std::uint64_t universe) {
  ring_.reserve_ids(universe);
  extend_dense_index(dense_counters_, universe, std::uint32_t{0},
                     "SecondChancePolicy");
  dense_ = true;
  counters_.clear();
}

std::uint32_t SecondChancePolicy::counter_of(ObjectId id) const {
  if (dense_) return dense_counters_[static_cast<std::size_t>(id)];
  const auto it = counters_.find(id);
  return it == counters_.end() ? 0 : it->second;
}

void SecondChancePolicy::set_counter(ObjectId id, std::uint32_t value) {
  if (dense_) {
    dense_counters_[static_cast<std::size_t>(id)] = value;
  } else if (value == 0) {
    counters_.erase(id);
  } else {
    counters_[id] = value;
  }
}

void SecondChancePolicy::on_insert(const CacheObject& obj) {
  // New objects enter unarmed: the first hand pass evicts them unless a
  // hit arms the counter first (quick demotion of one-timers).
  ring_.push_front(obj.id);
  set_counter(obj.id, 0);
}

void SecondChancePolicy::on_hit(const CacheObject& obj) {
  const std::uint32_t c = counter_of(obj.id);
  if (c < counter_max_) set_counter(obj.id, c + 1);
}

ObjectId SecondChancePolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  // The hand walks from the cold end; armed objects lose one chance and
  // recycle to the young end. Counters only decrease along the walk, so the
  // scan terminates after at most counter_max_ full revolutions.
  for (;;) {
    const ObjectId hand = ring_.back();
    const std::uint32_t c = counter_of(hand);
    if (c == 0) return hand;
    set_counter(hand, c - 1);
    ring_.move_to_front(hand);
  }
}

void SecondChancePolicy::on_evict(ObjectId id) {
  ring_.erase(id);
  set_counter(id, 0);
}

void SecondChancePolicy::clear() {
  ring_.clear();
  if (dense_) {
    dense_counters_.assign(dense_counters_.size(), 0);
  } else {
    counters_.clear();
  }
}

}  // namespace webcache::cache
