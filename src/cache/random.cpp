#include "cache/random.hpp"

#include <stdexcept>

namespace webcache::cache {

RandomPolicy::RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}

void RandomPolicy::add(std::uint32_t slot) {
  std::uint32_t& pos = slot_entry(position_, slot, kAbsent);
  if (pos != kAbsent) throw std::logic_error("RandomPolicy: duplicate insert");
  pos = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(slot);
}

void RandomPolicy::remove(std::uint32_t slot) {
  if (slot >= position_.size() || position_[slot] == kAbsent) {
    throw std::logic_error("RandomPolicy: removing absent slot");
  }
  const std::uint32_t pos = position_[slot];
  const std::uint32_t moved = slots_.back();
  slots_[pos] = moved;
  position_[moved] = pos;
  slots_.pop_back();
  position_[slot] = kAbsent;
}

void RandomPolicy::on_insert(const CacheObject& obj) { add(obj.slot); }

std::uint32_t RandomPolicy::evict(std::uint64_t /*incoming_size*/) {
  if (slots_.empty()) throw std::logic_error("RandomPolicy: empty");
  const std::uint32_t victim =
      slots_[static_cast<std::size_t>(rng_.below(slots_.size()))];
  remove(victim);
  return victim;
}

void RandomPolicy::on_erase(const CacheObject& obj) { remove(obj.slot); }

void RandomPolicy::clear() {
  // A reset run must reproduce the original draw sequence, so the stream
  // restarts from the construction seed.
  rng_ = util::Rng(seed_);
  slots_.clear();
  position_.clear();
}

}  // namespace webcache::cache
