#include "cache/lazy_lru.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace webcache::cache {

namespace {

std::string fmt_probability(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

// ---- Prob-LRU -------------------------------------------------------------

ProbLruPolicy::ProbLruPolicy(double p, std::uint64_t seed)
    : p_(p),
      seed_(seed),
      rng_(seed),
      name_("PROB-LRU:p=" + fmt_probability(p)) {
  if (!(p > 0.0) || p > 1.0) {
    throw std::invalid_argument(
        "ProbLruPolicy: promotion probability must be in (0, 1]");
  }
}

void ProbLruPolicy::reserve_ids(std::uint64_t universe) {
  order_.reserve_ids(universe);
}

void ProbLruPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.id);
}

void ProbLruPolicy::on_hit(const CacheObject& obj) {
  // One draw per hit, unconditionally: the draw stream then depends only on
  // the hit sequence, never on the object's current list position, which is
  // what keeps sparse and dense replays bit-identical.
  if (rng_.chance(p_)) order_.move_to_front(obj.id);
}

ObjectId ProbLruPolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  return order_.back();
}

void ProbLruPolicy::on_evict(ObjectId id) { order_.erase(id); }

void ProbLruPolicy::clear() {
  // A reset run must reproduce the original draw sequence.
  rng_ = util::Rng(seed_);
  order_.clear();
}

// ---- Delay-LRU ------------------------------------------------------------

DelayLruPolicy::DelayLruPolicy(std::uint64_t k)
    : k_(k), name_("DELAY-LRU:k=" + std::to_string(k)) {
  if (k == 0) {
    throw std::invalid_argument(
        "DelayLruPolicy: promotion interval must be >= 1");
  }
}

void DelayLruPolicy::reserve_ids(std::uint64_t universe) {
  order_.reserve_ids(universe);
  extend_dense_index(dense_stamps_, universe, std::uint64_t{0},
                     "DelayLruPolicy");
  dense_ = true;
  stamps_.clear();
}

std::uint64_t DelayLruPolicy::stamp_of(ObjectId id) const {
  if (dense_) return dense_stamps_[static_cast<std::size_t>(id)];
  const auto it = stamps_.find(id);
  return it == stamps_.end() ? 0 : it->second;
}

void DelayLruPolicy::set_stamp(ObjectId id, std::uint64_t stamp) {
  if (dense_) {
    dense_stamps_[static_cast<std::size_t>(id)] = stamp;
  } else {
    stamps_[id] = stamp;
  }
}

void DelayLruPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.id);
  // Insertion counts as the first promotion: the window opens at the
  // insert clock (CacheObject::last_access == the container clock here).
  set_stamp(obj.id, obj.last_access);
}

void DelayLruPolicy::on_hit(const CacheObject& obj) {
  if (obj.last_access - stamp_of(obj.id) >= k_) {
    order_.move_to_front(obj.id);
    set_stamp(obj.id, obj.last_access);
  }
}

ObjectId DelayLruPolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  return order_.back();
}

void DelayLruPolicy::on_evict(ObjectId id) {
  order_.erase(id);
  if (dense_) {
    dense_stamps_[static_cast<std::size_t>(id)] = 0;
  } else {
    stamps_.erase(id);
  }
}

void DelayLruPolicy::clear() {
  order_.clear();
  if (dense_) {
    dense_stamps_.assign(dense_stamps_.size(), 0);
  } else {
    stamps_.clear();
  }
}

// ---- batch promotion ------------------------------------------------------

BatchPromotionPolicy::BatchPromotionPolicy(std::uint64_t batch)
    : batch_(batch), name_("BATCH-LRU:batch=" + std::to_string(batch)) {
  if (batch == 0) {
    throw std::invalid_argument(
        "BatchPromotionPolicy: batch size must be >= 1");
  }
  pending_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      batch, 1 << 20)));
}

void BatchPromotionPolicy::reserve_ids(std::uint64_t universe) {
  order_.reserve_ids(universe);
}

void BatchPromotionPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.id);
}

void BatchPromotionPolicy::on_hit(const CacheObject& obj) {
  pending_.push_back(obj.id);
  if (pending_.size() >= batch_) flush();
}

void BatchPromotionPolicy::flush() {
  // Arrival order: the most recently hit object ends up at the MRU end.
  // Duplicates are harmless (a second move is idempotent on the order);
  // evicted ids were purged by on_evict, so everything queued is resident.
  for (const ObjectId id : pending_) order_.move_to_front(id);
  pending_.clear();
}

ObjectId BatchPromotionPolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  return order_.back();
}

void BatchPromotionPolicy::on_evict(ObjectId id) {
  order_.erase(id);
  pending_.erase(std::remove(pending_.begin(), pending_.end(), id),
                 pending_.end());
}

void BatchPromotionPolicy::clear() {
  order_.clear();
  pending_.clear();
}

}  // namespace webcache::cache
