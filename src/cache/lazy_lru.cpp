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

void ProbLruPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.slot);
}

void ProbLruPolicy::on_hit(const CacheObject& obj) {
  // One draw per hit, unconditionally: the draw stream then depends only on
  // the hit sequence, never on the object's current list position.
  if (rng_.chance(p_)) order_.move_to_front(obj.slot);
}

std::uint32_t ProbLruPolicy::evict(std::uint64_t /*incoming_size*/) {
  return order_.pop_back();
}

void ProbLruPolicy::on_erase(const CacheObject& obj) { order_.erase(obj.slot); }

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

void DelayLruPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.slot);
  // Insertion counts as the first promotion: the window opens at the
  // insert clock (CacheObject::last_access == the container clock here).
  slot_entry(stamps_, obj.slot) = obj.last_access;
}

void DelayLruPolicy::on_hit(const CacheObject& obj) {
  std::uint64_t& stamp = stamps_[obj.slot];
  if (obj.last_access - stamp >= k_) {
    order_.move_to_front(obj.slot);
    stamp = obj.last_access;
  }
}

std::uint32_t DelayLruPolicy::evict(std::uint64_t /*incoming_size*/) {
  return order_.pop_back();
}

void DelayLruPolicy::on_erase(const CacheObject& obj) {
  order_.erase(obj.slot);
}

void DelayLruPolicy::clear() {
  order_.clear();
  stamps_.clear();
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

void BatchPromotionPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.slot);
}

void BatchPromotionPolicy::on_hit(const CacheObject& obj) {
  pending_.push_back(obj.slot);
  if (pending_.size() >= batch_) flush();
}

void BatchPromotionPolicy::flush() {
  // Arrival order: the most recently hit object ends up at the MRU end.
  // Duplicates are harmless (a second move is idempotent on the order);
  // departed slots were purged by remove(), so everything queued is
  // resident.
  for (const std::uint32_t slot : pending_) order_.move_to_front(slot);
  pending_.clear();
}

void BatchPromotionPolicy::remove(std::uint32_t slot) {
  order_.erase(slot);
  pending_.erase(std::remove(pending_.begin(), pending_.end(), slot),
                 pending_.end());
}

std::uint32_t BatchPromotionPolicy::evict(std::uint64_t /*incoming_size*/) {
  const std::uint32_t victim = order_.back();
  remove(victim);
  return victim;
}

void BatchPromotionPolicy::on_erase(const CacheObject& obj) {
  remove(obj.slot);
}

void BatchPromotionPolicy::clear() {
  order_.clear();
  pending_.clear();
}

}  // namespace webcache::cache
