// Indexed binary min-heap.
//
// The value-based policies (LFU-DA, GDS, GDSF, GD*) must, on every hit,
// update the priority of an arbitrary resident object and, on eviction, pop
// the minimum. A binary heap with a key -> slot index gives O(log n) for
// both, and (unlike std::priority_queue) supports decrease/increase-key and
// erase-by-key.
//
// The key -> slot index has two modes. By default it is an unordered_map
// (keys may be arbitrary, e.g. 64-bit URL hashes). After
// reserve_dense_keys(universe) — legal for integral keys in [0, universe),
// i.e. a densified trace — it is a flat vector, so the two slot updates per
// sift step become plain array stores instead of hash probes.
//
// Ties are broken by insertion sequence (FIFO among equal priorities), which
// makes every policy fully deterministic and replay-stable; the index mode
// never affects ordering.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cache/types.hpp"

namespace webcache::cache {

template <typename Key, typename Priority>
class IndexedMinHeap {
 public:
  struct Entry {
    Key key;
    Priority priority;
    std::uint64_t sequence;  // tie-breaker: lower = inserted earlier
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(const Key& key) const { return find_slot(key) != kNoSlot; }

  /// Switches the key -> slot index to a flat vector covering keys in
  /// [0, universe); requires an integral Key. The first call is only legal
  /// while empty; later calls may extend the universe, never shrink it.
  void reserve_dense_keys(std::uint64_t universe) {
    static_assert(std::is_integral_v<Key>,
                  "dense key index requires an integral Key");
    if (!dense_ && !heap_.empty()) {
      throw std::logic_error("IndexedMinHeap: reserve_dense_keys on non-empty");
    }
    extend_dense_index(dense_slots_, universe, kNoSlot, "IndexedMinHeap");
    dense_ = true;
    slots_.clear();
  }

  /// Inserts a new key. Throws std::logic_error if the key is present.
  void push(const Key& key, Priority priority) {
    if (contains(key)) {
      throw std::logic_error("IndexedMinHeap: duplicate key");
    }
    heap_.push_back(Entry{key, priority, next_sequence_++});
    set_slot(key, heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  /// The minimum entry. Throws std::logic_error when empty.
  const Entry& top() const {
    if (heap_.empty()) throw std::logic_error("IndexedMinHeap: empty");
    return heap_.front();
  }

  /// Removes and returns the minimum entry.
  Entry pop() {
    Entry out = top();
    remove_at(0);
    return out;
  }

  /// Updates the priority of an existing key (any direction). The entry
  /// keeps its original sequence number. Throws if absent.
  void update(const Key& key, Priority priority) {
    const std::size_t i = slot_of(key);
    const Priority old = heap_[i].priority;
    heap_[i].priority = priority;
    if (less_at(i, parent(i))) {
      sift_up(i);
    } else if (priority != old) {
      sift_down(i);
    }
  }

  /// Removes an arbitrary key. Throws if absent.
  void erase(const Key& key) { remove_at(slot_of(key)); }

  /// Priority currently stored for key. Throws if absent.
  Priority priority_of(const Key& key) const {
    return heap_[slot_of(key)].priority;
  }

  void clear() {
    heap_.clear();
    if (dense_) {
      dense_slots_.assign(dense_slots_.size(), kNoSlot);
    } else {
      slots_.clear();
    }
    next_sequence_ = 0;
  }

  // ---- checkpointing ----
  //
  // (priority, sequence) is a strict total order over the entries, so the
  // entry set plus next_sequence_ is the heap's complete semantic state:
  // any valid heap over the same entries pops in the same order. The
  // visitor walks the internal array (arbitrary order); restore_entry
  // re-pushes with the original sequence, rebuilding a valid heap whose
  // array layout may differ but whose pop order cannot.

  std::uint64_t next_sequence() const { return next_sequence_; }

  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Entry& e : heap_) fn(e);
  }

  /// Re-inserts a saved entry with its original tie-break sequence. Only
  /// for checkpoint restore; the caller must also call set_next_sequence
  /// with the saved counter afterwards.
  void restore_entry(const Key& key, Priority priority,
                     std::uint64_t sequence) {
    if (contains(key)) {
      throw std::logic_error("IndexedMinHeap: duplicate key");
    }
    heap_.push_back(Entry{key, priority, sequence});
    set_slot(key, heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }

  void set_next_sequence(std::uint64_t next) { next_sequence_ = next; }

  /// Validates the heap property and the slot index; test support.
  bool check_invariants() const {
    std::size_t indexed = 0;
    if (dense_) {
      for (const std::size_t s : dense_slots_) {
        if (s != kNoSlot) ++indexed;
      }
    } else {
      indexed = slots_.size();
    }
    if (heap_.size() != indexed) return false;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (find_slot(heap_[i].key) != i) return false;
      if (i > 0 && less_at(i, parent(i))) return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  static std::size_t parent(std::size_t i) { return i == 0 ? 0 : (i - 1) / 2; }

  std::size_t find_slot(const Key& key) const {
    if (dense_) {
      const auto k = static_cast<std::size_t>(key);
      return k < dense_slots_.size() ? dense_slots_[k] : kNoSlot;
    }
    const auto it = slots_.find(key);
    return it == slots_.end() ? kNoSlot : it->second;
  }

  void set_slot(const Key& key, std::size_t slot) {
    if (dense_) {
      const auto k = static_cast<std::size_t>(key);
      if (k >= dense_slots_.size()) {
        throw std::logic_error("IndexedMinHeap: key outside dense universe");
      }
      dense_slots_[k] = slot;
    } else {
      slots_[key] = slot;
    }
  }

  void erase_slot(const Key& key) {
    if (dense_) {
      dense_slots_[static_cast<std::size_t>(key)] = kNoSlot;
    } else {
      slots_.erase(key);
    }
  }

  std::size_t slot_of(const Key& key) const {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) {
      throw std::logic_error("IndexedMinHeap: key not present");
    }
    return slot;
  }

  bool less_at(std::size_t a, std::size_t b) const {
    if (heap_[a].priority != heap_[b].priority) {
      return heap_[a].priority < heap_[b].priority;
    }
    return heap_[a].sequence < heap_[b].sequence;
  }

  void swap_slots(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    set_slot(heap_[a].key, a);
    set_slot(heap_[b].key, b);
  }

  void sift_up(std::size_t i) {
    while (i > 0 && less_at(i, parent(i))) {
      swap_slots(i, parent(i));
      i = parent(i);
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      if (l < n && less_at(l, smallest)) smallest = l;
      if (r < n && less_at(r, smallest)) smallest = r;
      if (smallest == i) break;
      swap_slots(i, smallest);
      i = smallest;
    }
  }

  void remove_at(std::size_t i) {
    erase_slot(heap_[i].key);
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = heap_[last];
      set_slot(heap_[i].key, i);
      heap_.pop_back();
      if (i > 0 && less_at(i, parent(i))) {
        sift_up(i);
      } else {
        sift_down(i);
      }
    } else {
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_sequence_ = 0;

  bool dense_ = false;
  std::unordered_map<Key, std::size_t> slots_;
  std::vector<std::size_t> dense_slots_;
};

}  // namespace webcache::cache
