#include "cache/clock.hpp"

#include <stdexcept>

namespace webcache::cache {

SecondChancePolicy::SecondChancePolicy(std::uint32_t counter_max)
    : counter_max_(counter_max) {
  if (counter_max == 0) {
    throw std::invalid_argument("SecondChancePolicy: counter max must be >= 1");
  }
}

void SecondChancePolicy::on_insert(const CacheObject& obj) {
  // New objects enter unarmed: the first hand pass evicts them unless a
  // hit arms the counter first (quick demotion of one-timers).
  ring_.push_front(obj.slot);
  slot_entry(counters_, obj.slot) = 0;
}

void SecondChancePolicy::on_hit(const CacheObject& obj) {
  std::uint32_t& c = counters_[obj.slot];
  if (c < counter_max_) ++c;
}

std::uint32_t SecondChancePolicy::evict(std::uint64_t /*incoming_size*/) {
  // The hand walks from the cold end; armed objects lose one chance and
  // recycle to the young end. Counters only decrease along the walk, so the
  // scan terminates after at most counter_max_ full revolutions.
  for (;;) {
    const std::uint32_t hand = ring_.back();
    if (counters_[hand] == 0) return ring_.pop_back();
    --counters_[hand];
    ring_.move_to_front(hand);
  }
}

void SecondChancePolicy::clear() {
  ring_.clear();
  counters_.clear();
}

}  // namespace webcache::cache
