// Resident-object metadata store for the Cache container.
//
// Sparse mode (default) keys an unordered_map by ObjectId — required when
// ids are URL hashes. Dense mode (reserve_dense) keeps the metadata in a
// compact slab vector plus a flat id -> slab-slot index, so the per-request
// lookup is one array load instead of a hash probe, and iteration touches
// only resident objects, contiguously.
//
// Pointer validity contract (narrower than unordered_map's): a pointer
// returned by find()/insert() is invalidated by the *next* insert or erase
// on the table. The Cache hot path never holds one across a mutation.
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
  std::uint64_t size() const {
    return dense_ ? slab_.size() : map_.size();
  }
  bool empty() const { return size() == 0; }

  /// Switches to the slab + flat-index representation for ids in
  /// [0, universe). The first call is only legal while empty; later calls
  /// may extend the universe under live objects, never shrink it.
  void reserve_dense(std::uint64_t universe) {
    if (!dense_ && !empty()) {
      throw std::logic_error("ObjectTable: reserve_dense on non-empty table");
    }
    if (universe >= kNoSlot) {
      throw std::invalid_argument("ObjectTable: dense universe too large");
    }
    extend_dense_index(slot_, universe, kNoSlot, "ObjectTable");
    dense_ = true;
    map_.clear();
  }

  CacheObject* find(ObjectId id) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size() || slot_[i] == kNoSlot) return nullptr;
      return &slab_[slot_[i]];
    }
    const auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }
  const CacheObject* find(ObjectId id) const {
    return const_cast<ObjectTable*>(this)->find(id);
  }
  bool contains(ObjectId id) const { return find(id) != nullptr; }

  /// Inserts a copy of obj (keyed by obj.id); throws on duplicates.
  CacheObject& insert(const CacheObject& obj) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(obj.id);
      if (i >= slot_.size()) {
        throw std::logic_error("ObjectTable: id outside dense universe");
      }
      if (slot_[i] != kNoSlot) {
        throw std::logic_error("ObjectTable: duplicate insert");
      }
      slot_[i] = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(obj);
      return slab_.back();
    }
    const auto [it, inserted] = map_.emplace(obj.id, obj);
    if (!inserted) throw std::logic_error("ObjectTable: duplicate insert");
    return it->second;
  }

  /// Removes id; throws when absent.
  void erase(ObjectId id) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= slot_.size() || slot_[i] == kNoSlot) {
        throw std::logic_error("ObjectTable: erasing absent object");
      }
      const std::uint32_t hole = slot_[i];
      const std::uint32_t last = static_cast<std::uint32_t>(slab_.size() - 1);
      if (hole != last) {
        slab_[hole] = slab_[last];
        slot_[static_cast<std::size_t>(slab_[hole].id)] = hole;
      }
      slab_.pop_back();
      slot_[i] = kNoSlot;
      return;
    }
    if (map_.erase(id) == 0) {
      throw std::logic_error("ObjectTable: erasing absent object");
    }
  }

  /// Drops all objects; keeps the dense/sparse mode and reserved index.
  void clear() {
    if (dense_) {
      slot_.assign(slot_.size(), kNoSlot);
      slab_.clear();
    } else {
      map_.clear();
    }
  }

  /// Visits every resident object (arbitrary order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dense_) {
      for (const CacheObject& obj : slab_) fn(obj);
    } else {
      for (const auto& [id, obj] : map_) fn(obj);
    }
  }

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  bool dense_ = false;
  std::unordered_map<ObjectId, CacheObject> map_;
  std::vector<CacheObject> slab_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace webcache::cache
