// Resident-object metadata store for the Cache container.
//
// Objects live in a slab of stable slots: insert() takes the most recently
// freed slot (a LIFO free list) or appends one, and erase() frees the slot
// without moving any other object. CacheObject::slot records the slot, and
// every replacement policy keys its structures by it, so the policies'
// arrays are bounded by the slab's high-water mark (the most objects ever
// resident at once) whatever ids the caller uses.
//
// The id -> slot index is the cache's only id-keyed structure over
// resident objects: an unordered_map by default (ids may be 64-bit URL
// hashes), or after reserve_dense a flat vector over [0, universe), one
// array load per lookup. Slot assignment depends only on the insert/erase
// sequence, never on the index mode.
//
// A dense table holds at most one object per id, so its slab never needs
// more slots than the universe. The first reserve_dense reserves exactly
// that many: untouched capacity costs address space, not memory, and a
// replay that knows its universe up front (a materialized trace) never
// copies the slab. A later, larger reservation (a stream numbering ids as
// they arrive) does not reserve again; the slab then grows by doubling.
//
// Pointer validity contract: a pointer returned by find()/insert()/at()
// stays valid until the object is erased. After the first reserve_dense on
// an empty table, an insert() never moves an object while the table holds
// no more objects than that reservation's universe; otherwise an insert()
// may grow the slab and move every object. Erasing one object never moves
// another.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cache/types.hpp"

namespace webcache::cache {

class ObjectTable {
 public:
  /// Never a valid slot; marks free slab entries and absent index entries.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  std::uint64_t size() const { return slab_.size() - free_.size(); }
  bool empty() const { return size() == 0; }
  /// Slots handed out so far (resident + free): every slot is below it.
  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(slab_.size());
  }

  /// Switches the id index to a flat vector for ids in [0, universe), and
  /// on the first call reserves the slab for `universe` objects. The first
  /// call is only legal while empty; later calls may extend the universe
  /// under live objects, never shrink it.
  void reserve_dense(std::uint64_t universe) {
    if (!dense_ && !empty()) {
      throw std::logic_error("ObjectTable: reserve_dense on non-empty table");
    }
    if (universe >= kNoSlot) {
      throw std::invalid_argument("ObjectTable: dense universe too large");
    }
    if (universe < index_.size()) {
      throw std::logic_error("ObjectTable: dense universe cannot shrink");
    }
    index_.resize(static_cast<std::size_t>(universe), kNoSlot);
    if (!dense_) slab_.reserve(static_cast<std::size_t>(universe));
    dense_ = true;
    map_.clear();
  }

  CacheObject* find(ObjectId id) {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &slab_[slot];
  }
  const CacheObject* find(ObjectId id) const {
    return const_cast<ObjectTable*>(this)->find(id);
  }
  bool contains(ObjectId id) const { return slot_of(id) != kNoSlot; }

  /// The resident object in `slot` (unchecked: the slot must be live).
  const CacheObject& at(std::uint32_t slot) const { return slab_[slot]; }

  /// Inserts a copy of obj (keyed by obj.id) into a free slot, which the
  /// stored copy's `slot` records; throws on duplicates.
  CacheObject& insert(const CacheObject& obj) {
    std::uint32_t* indexed = nullptr;
    if (dense_) {
      const auto i = static_cast<std::size_t>(obj.id);
      if (i >= index_.size()) {
        throw std::logic_error("ObjectTable: id outside dense universe");
      }
      indexed = &index_[i];
    } else {
      indexed = &map_.try_emplace(obj.id, kNoSlot).first->second;
    }
    if (*indexed != kNoSlot) {
      throw std::logic_error("ObjectTable: duplicate insert");
    }
    std::uint32_t slot;
    if (free_.empty()) {
      if (slab_.size() >= kNoSlot - 1) {
        if (!dense_) map_.erase(obj.id);
        throw std::length_error("ObjectTable: more than 2^32 - 2 objects");
      }
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    *indexed = slot;
    CacheObject& stored = slab_[slot];
    stored = obj;
    stored.slot = slot;
    return stored;
  }

  /// Frees `slot`; throws when it holds no object.
  void erase(std::uint32_t slot) {
    if (slot >= slab_.size() || slab_[slot].slot != slot) {
      throw std::logic_error("ObjectTable: erasing a free slot");
    }
    CacheObject& obj = slab_[slot];
    if (dense_) {
      index_[static_cast<std::size_t>(obj.id)] = kNoSlot;
    } else {
      map_.erase(obj.id);
    }
    obj.slot = kNoSlot;
    free_.push_back(slot);
  }

  /// Drops all objects and slots; keeps the index mode and dense universe.
  void clear() {
    if (dense_) {
      index_.assign(index_.size(), kNoSlot);
    } else {
      map_.clear();
    }
    slab_.clear();
    free_.clear();
  }

  /// Visits every resident object in slot order, skipping free slots.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (slab_[s].slot == s) fn(slab_[s]);
    }
  }

 private:
  std::uint32_t slot_of(ObjectId id) const {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      return i < index_.size() ? index_[i] : kNoSlot;
    }
    const auto it = map_.find(id);
    return it == map_.end() ? kNoSlot : it->second;
  }

  std::vector<CacheObject> slab_;    // by slot; free entries have kNoSlot
  std::vector<std::uint32_t> free_;  // freed slots, reused last-in first
  bool dense_ = false;
  std::vector<std::uint32_t> index_;  // id -> slot in dense mode
  std::unordered_map<ObjectId, std::uint32_t> map_;  // id -> slot otherwise
};

}  // namespace webcache::cache
