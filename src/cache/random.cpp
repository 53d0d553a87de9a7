#include "cache/random.hpp"

#include <stdexcept>

namespace webcache::cache {

RandomPolicy::RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}

void RandomPolicy::reserve_ids(std::uint64_t universe) {
  if (!dense_) {
    if (!ids_.empty()) {
      throw std::logic_error("RandomPolicy: reserve_ids on non-empty policy");
    }
    ids_.reserve(static_cast<std::size_t>(universe));
  }
  extend_dense_index(dense_where_, universe, kAbsent, "RandomPolicy");
  dense_ = true;
  where_.clear();
}

std::uint32_t RandomPolicy::find_position(ObjectId id) const {
  if (dense_) {
    const auto i = static_cast<std::size_t>(id);
    return i < dense_where_.size() ? dense_where_[i] : kAbsent;
  }
  const auto it = where_.find(id);
  return it == where_.end() ? kAbsent : it->second;
}

void RandomPolicy::set_position(ObjectId id, std::uint32_t pos) {
  if (dense_) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= dense_where_.size()) {
      throw std::logic_error("RandomPolicy: id outside reserved universe");
    }
    dense_where_[i] = pos;
  } else {
    where_[id] = pos;
  }
}

void RandomPolicy::drop_position(ObjectId id) {
  if (dense_) {
    dense_where_[static_cast<std::size_t>(id)] = kAbsent;
  } else {
    where_.erase(id);
  }
}

void RandomPolicy::on_insert(const CacheObject& obj) {
  if (find_position(obj.id) != kAbsent) {
    throw std::logic_error("RandomPolicy: duplicate insert");
  }
  set_position(obj.id, static_cast<std::uint32_t>(ids_.size()));
  ids_.push_back(obj.id);
}

ObjectId RandomPolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  if (ids_.empty()) throw std::logic_error("RandomPolicy: empty");
  return ids_[static_cast<std::size_t>(rng_.below(ids_.size()))];
}

void RandomPolicy::on_evict(ObjectId id) {
  const std::uint32_t pos = find_position(id);
  if (pos == kAbsent) throw std::logic_error("RandomPolicy: evict absent id");
  const ObjectId moved = ids_.back();
  ids_[pos] = moved;
  ids_.pop_back();
  if (moved != id) set_position(moved, pos);
  drop_position(id);
}

void RandomPolicy::clear() {
  // A reset run must reproduce the original draw sequence, so the stream
  // restarts from the construction seed.
  rng_ = util::Rng(seed_);
  ids_.clear();
  if (dense_) {
    dense_where_.assign(dense_where_.size(), kAbsent);
  } else {
    where_.clear();
  }
}

}  // namespace webcache::cache
