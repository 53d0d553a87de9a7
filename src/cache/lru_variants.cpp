#include "cache/lru_variants.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace webcache::cache {

// ------------------------------------------------------- LRU-Threshold

LruThresholdPolicy::LruThresholdPolicy(std::uint64_t threshold_bytes)
    : threshold_bytes_(threshold_bytes) {
  if (threshold_bytes == 0) {
    throw std::invalid_argument("LruThresholdPolicy: threshold must be > 0");
  }
  name_ = "LRU-THOLD(" + std::to_string(threshold_bytes) + ")";
}

void LruThresholdPolicy::reserve_ids(std::uint64_t universe) {
  order_.reserve_ids(universe);
}

void LruThresholdPolicy::on_insert(const CacheObject& obj) {
  order_.push_front(obj.id);
}

void LruThresholdPolicy::on_hit(const CacheObject& obj) {
  order_.move_to_front(obj.id);
}

ObjectId LruThresholdPolicy::choose_victim(std::uint64_t /*incoming_size*/) {
  return order_.back();
}

void LruThresholdPolicy::on_evict(ObjectId id) { order_.erase(id); }

void LruThresholdPolicy::clear() { order_.clear(); }

// ------------------------------------------------------------- LRU-MIN

std::size_t LruMinPolicy::bucket_of(std::uint64_t size) {
  if (size == 0) return 0;
  return 63 - static_cast<std::size_t>(std::countl_zero(size));
}

void LruMinPolicy::reserve_ids(std::uint64_t universe) {
  if (!dense_ && resident_ != 0) {
    throw std::logic_error("LruMinPolicy: reserve_ids on non-empty policy");
  }
  extend_dense_index(dense_where_, universe, Slot{}, "LruMinPolicy");
  dense_ = true;
  where_.clear();
}

LruMinPolicy::Slot* LruMinPolicy::find_slot(ObjectId id) {
  if (dense_) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= dense_where_.size()) return nullptr;
    Slot& slot = dense_where_[i];
    return slot.bucket == kAbsent ? nullptr : &slot;
  }
  const auto it = where_.find(id);
  return it == where_.end() ? nullptr : &it->second;
}

LruMinPolicy::Slot& LruMinPolicy::make_slot(ObjectId id) {
  if (dense_) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= dense_where_.size()) {
      throw std::logic_error("LruMinPolicy: id outside reserved universe");
    }
    return dense_where_[i];
  }
  return where_[id];
}

void LruMinPolicy::drop_slot(ObjectId id) {
  if (dense_) {
    dense_where_[static_cast<std::size_t>(id)] = Slot{};
  } else {
    where_.erase(id);
  }
}

void LruMinPolicy::on_insert(const CacheObject& obj) {
  if (find_slot(obj.id) != nullptr) {
    throw std::logic_error("LruMinPolicy: duplicate insert");
  }
  const std::size_t bucket = bucket_of(obj.size);
  buckets_[bucket].push_front(Entry{obj.id, obj.size, next_stamp_++});
  make_slot(obj.id) = Slot{bucket, buckets_[bucket].begin()};
  ++resident_;
}

void LruMinPolicy::on_hit(const CacheObject& obj) {
  Slot* slot = find_slot(obj.id);
  if (slot == nullptr) {
    throw std::logic_error("LruMinPolicy: hit on absent id");
  }
  // Size may have been refreshed by the container; re-bucket if needed.
  const std::size_t bucket = bucket_of(obj.size);
  slot->where->size = obj.size;
  slot->where->stamp = next_stamp_++;
  buckets_[bucket].splice(buckets_[bucket].begin(), buckets_[slot->bucket],
                          slot->where);
  slot->bucket = bucket;
  slot->where = buckets_[bucket].begin();
}

const LruMinPolicy::Entry* LruMinPolicy::oldest_at_least(
    std::uint64_t threshold) const {
  const Entry* best = nullptr;
  const std::size_t first_bucket = threshold == 0 ? 0 : bucket_of(threshold);
  for (std::size_t b = first_bucket; b < kBuckets; ++b) {
    const auto& bucket = buckets_[b];
    if (bucket.empty()) continue;
    const Entry* candidate = nullptr;
    if (b > first_bucket || threshold == 0 ||
        threshold == (1ULL << first_bucket)) {
      // Every entry in this bucket is >= threshold: its LRU tail qualifies.
      candidate = &bucket.back();
    } else {
      // Boundary bucket: walk from the cold end for the first entry that
      // clears the exact threshold.
      for (auto it = bucket.rbegin(); it != bucket.rend(); ++it) {
        if (it->size >= threshold) {
          candidate = &*it;
          break;
        }
      }
    }
    if (candidate != nullptr &&
        (best == nullptr || candidate->stamp < best->stamp)) {
      best = candidate;
    }
  }
  return best;
}

ObjectId LruMinPolicy::choose_victim(std::uint64_t incoming_size) {
  if (resident_ == 0) throw std::logic_error("LruMinPolicy: empty");
  // Evict the LRU document with size >= S; halve S on failure. S = 0
  // accepts anything, so the loop terminates at the global LRU victim.
  std::uint64_t threshold = incoming_size;
  for (;;) {
    if (const Entry* victim = oldest_at_least(threshold)) return victim->id;
    threshold /= 2;
  }
}

void LruMinPolicy::on_evict(ObjectId id) {
  Slot* slot = find_slot(id);
  if (slot == nullptr) {
    throw std::logic_error("LruMinPolicy: evict absent id");
  }
  buckets_[slot->bucket].erase(slot->where);
  drop_slot(id);
  --resident_;
}

void LruMinPolicy::clear() {
  for (auto& bucket : buckets_) bucket.clear();
  if (dense_) {
    dense_where_.assign(dense_where_.size(), Slot{});
  } else {
    where_.clear();
  }
  next_stamp_ = 0;
  resident_ = 0;
}

}  // namespace webcache::cache
