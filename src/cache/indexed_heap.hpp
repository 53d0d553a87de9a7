// Indexed binary min-heap.
//
// The value-based policies (LFU-DA, GDS, GDSF, GD*) must, on every hit,
// update the priority of an arbitrary resident object and, on eviction, pop
// the minimum. A binary heap with a key -> slot index gives O(log n) for
// both, and (unlike std::priority_queue) supports decrease/increase-key and
// erase-by-key.
//
// Layout. Each array entry is 16 bytes — {priority, u32 handle, u32
// sequence} for an 8-byte Priority — and the slot index is a flat
// std::vector<u32> indexed by handle. sift_up and sift_down move a hole
// rather than swapping, so each level costs one entry write and one slot
// write. The hole method makes exactly the comparisons the swap method
// would, so the array layout (and hence for_each_entry's order, which the
// checkpoint writer serializes) is the swap method's.
//
// Handles. After reserve_dense_keys(universe) — legal for integral keys in
// [0, universe), i.e. a densified trace, with universe < 2^32 - 1 — a key
// is its own handle. Otherwise (map mode: arbitrary keys, e.g. 64-bit URL
// hashes) each key is mapped to a recycled u32 handle once, when it enters
// the heap, and unmapped when it leaves. Either way the sift code sees only
// handles and has a single path.
//
// Ties are broken by insertion sequence (FIFO among equal priorities), which
// makes every policy fully deterministic and replay-stable; the index mode
// never affects ordering. Sequences are stored in 32 bits: when the counter
// would pass 2^32, the live entries are renumbered 0..n-1 in their existing
// sequence order, as are restored entries whose saved sequences do not fit.
// Only the relative order of sequences is ever compared, so renumbering
// cannot change the pop order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cache/types.hpp"

namespace webcache::util {
class StateWriter;
class StateReader;
}  // namespace webcache::util

namespace webcache::cache {

template <typename Key, typename Priority>
class IndexedMinHeap {
 public:
  /// An entry as callers see it; sequence is the tie-breaker (lower =
  /// inserted earlier).
  struct Entry {
    Key key;
    Priority priority;
    std::uint64_t sequence;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(const Key& key) const { return find_slot(key) != kNone; }

  /// Makes every key its own handle, covering keys in [0, universe);
  /// requires an integral Key and universe < 2^32 - 1. The first call is
  /// only legal while empty; later calls may extend the universe, never
  /// shrink it.
  void reserve_dense_keys(std::uint64_t universe) {
    static_assert(std::is_integral_v<Key>,
                  "dense key index requires an integral Key");
    if (!dense_ && !heap_.empty()) {
      throw std::logic_error("IndexedMinHeap: reserve_dense_keys on non-empty");
    }
    if (universe >= kNone) {
      throw std::invalid_argument("IndexedMinHeap: dense universe too large");
    }
    if (!dense_) clear_handles();
    extend_dense_index(slots_, universe, kNone, "IndexedMinHeap");
    dense_ = true;
  }

  /// Inserts a new key. Throws std::logic_error if the key is present.
  void push(const Key& key, Priority priority) {
    const std::uint32_t handle = acquire_handle(key);
    if (next_sequence_ > kMaxSequence) renumber_sequences();
    const auto sequence = static_cast<std::uint32_t>(next_sequence_++);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Node{priority, handle, sequence});
  }

  /// The minimum entry. Throws std::logic_error when empty.
  Entry top() const {
    if (heap_.empty()) throw std::logic_error("IndexedMinHeap: empty");
    return entry_of(heap_.front());
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
    Node node = heap_[i];
    const Priority old = node.priority;
    node.priority = priority;
    if (i > 0 && less(node, heap_[parent(i)])) {
      sift_up(i, node);
    } else if (priority != old) {
      sift_down(i, node);
    } else {
      heap_[i].priority = priority;
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
      slots_.assign(slots_.size(), kNone);
    } else {
      clear_handles();
    }
    next_sequence_ = 0;
  }

  // ---- checkpointing ----
  //
  // (priority, sequence) is a strict total order over the entries, so the
  // entry set plus next_sequence_ is the heap's complete semantic state:
  // any valid heap over the same entries pops in the same order. The
  // visitor walks the internal array; restore re-pushes the entries in the
  // given order, so restoring a saved array rebuilds that very array.

  std::uint64_t next_sequence() const { return next_sequence_; }

  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Node& node : heap_) fn(entry_of(node));
  }

  /// Rebuilds an empty heap from saved entries, each with its original
  /// tie-break sequence, and the saved counter. Sequences that do not fit
  /// in 32 bits are renumbered in order first. Throws std::logic_error on a
  /// non-empty heap or a duplicate key.
  void restore(const std::vector<Entry>& entries, std::uint64_t next_sequence) {
    if (!heap_.empty()) {
      throw std::logic_error("IndexedMinHeap: restore on non-empty");
    }
    std::vector<std::uint64_t> sequences(entries.size());
    bool fits = next_sequence <= kMaxSequence + 1;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      sequences[i] = entries[i].sequence;
      fits = fits && sequences[i] <= kMaxSequence;
    }
    if (!fits) next_sequence = rank_in_place(sequences);
    heap_.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::uint32_t handle = acquire_handle(entries[i].key);
      heap_.emplace_back();
      sift_up(heap_.size() - 1,
              Node{entries[i].priority, handle,
                   static_cast<std::uint32_t>(sequences[i])});
    }
    next_sequence_ = next_sequence;
  }

  /// Sets the sequence the next push receives; at 2^32 or more, that push
  /// renumbers the live entries first.
  void set_next_sequence(std::uint64_t next) { next_sequence_ = next; }

  /// Validates the heap property, the slot index and the handle map; test
  /// support.
  bool check_invariants() const {
    std::size_t indexed = 0;
    if (dense_) {
      for (const std::uint32_t s : slots_) {
        if (s != kNone) ++indexed;
      }
    } else {
      for (const auto& [key, handle] : handles_) {
        if (handle >= keys_.size() || !(keys_[handle] == key)) return false;
      }
      indexed = handles_.size();
      if (handles_.size() + free_handles_.size() != keys_.size()) return false;
    }
    if (heap_.size() != indexed) return false;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (find_slot(entry_of(heap_[i]).key) != i) return false;
      if (heap_[i].sequence >= next_sequence_) return false;
      if (i > 0 && less(heap_[i], heap_[parent(i)])) return false;
    }
    return true;
  }

 private:
  struct Node {
    Priority priority;
    std::uint32_t handle;
    std::uint32_t sequence;
  };
  static_assert(sizeof(Priority) != 8 || sizeof(Node) == 16,
                "an 8-byte priority must give 16-byte heap entries");

  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kMaxSequence = kNone;

  static std::size_t parent(std::size_t i) { return (i - 1) / 2; }

  static bool less(const Node& a, const Node& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.sequence < b.sequence;
  }

  // Replaces each value by its rank among the distinct values (equal values
  // share a rank) and returns the number of ranks.
  static std::uint64_t rank_in_place(std::vector<std::uint64_t>& values) {
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return values[a] < values[b];
    });
    std::uint64_t rank = 0;
    std::uint64_t previous = 0;
    for (std::size_t n = 0; n < order.size(); ++n) {
      const std::uint64_t value = values[order[n]];
      if (n > 0 && value != previous) ++rank;
      previous = value;
      values[order[n]] = rank;
    }
    return values.empty() ? 0 : rank + 1;
  }

  void renumber_sequences() {
    std::vector<std::uint64_t> sequences(heap_.size());
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      sequences[i] = heap_[i].sequence;
    }
    next_sequence_ = rank_in_place(sequences);
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].sequence = static_cast<std::uint32_t>(sequences[i]);
    }
  }

  Entry entry_of(const Node& node) const {
    if constexpr (std::is_integral_v<Key>) {
      if (dense_) return Entry{static_cast<Key>(node.handle), node.priority,
                               node.sequence};
    }
    return Entry{keys_[node.handle], node.priority, node.sequence};
  }

  std::uint32_t find_slot(const Key& key) const {
    if constexpr (std::is_integral_v<Key>) {
      if (dense_) {
        const auto k = static_cast<std::size_t>(key);
        return k < slots_.size() ? slots_[k] : kNone;
      }
    }
    const auto it = handles_.find(key);
    return it == handles_.end() ? kNone : slots_[it->second];
  }

  std::size_t slot_of(const Key& key) const {
    const std::uint32_t slot = find_slot(key);
    if (slot == kNone) {
      throw std::logic_error("IndexedMinHeap: key not present");
    }
    return slot;
  }

  // The handle a new key enters the heap under; throws, changing nothing,
  // if the key is present or outside the dense universe.
  std::uint32_t acquire_handle(const Key& key) {
    if constexpr (std::is_integral_v<Key>) {
      if (dense_) {
        const auto k = static_cast<std::size_t>(key);
        if (k >= slots_.size()) {
          throw std::logic_error("IndexedMinHeap: key outside dense universe");
        }
        if (slots_[k] != kNone) {
          throw std::logic_error("IndexedMinHeap: duplicate key");
        }
        return static_cast<std::uint32_t>(k);
      }
    }
    const auto [it, inserted] = handles_.try_emplace(key, kNone);
    if (!inserted) throw std::logic_error("IndexedMinHeap: duplicate key");
    if (free_handles_.empty()) {
      if (keys_.size() >= kNone) {
        handles_.erase(it);
        throw std::length_error("IndexedMinHeap: more than 2^32 - 2 keys");
      }
      keys_.push_back(key);
      slots_.push_back(kNone);
      it->second = static_cast<std::uint32_t>(keys_.size() - 1);
    } else {
      it->second = free_handles_.back();
      free_handles_.pop_back();
      keys_[it->second] = key;
    }
    return it->second;
  }

  void release_handle(std::uint32_t handle) {
    slots_[handle] = kNone;
    if (!dense_) {
      handles_.erase(keys_[handle]);
      free_handles_.push_back(handle);
    }
  }

  void clear_handles() {
    slots_.clear();
    keys_.clear();
    handles_.clear();
    free_handles_.clear();
  }

  void place(std::size_t i, const Node& node) {
    heap_[i] = node;
    slots_[node.handle] = static_cast<std::uint32_t>(i);
  }

  // Moves the hole at i toward the root while `node` beats the parent,
  // then drops `node` into it.
  void sift_up(std::size_t i, const Node& node) {
    while (i > 0) {
      const std::size_t p = parent(i);
      if (!less(node, heap_[p])) break;
      place(i, heap_[p]);
      i = p;
    }
    place(i, node);
  }

  // Moves the hole at i toward the leaves while a child beats `node`
  // (the smaller child when both do), then drops `node` into it.
  void sift_down(std::size_t i, const Node& node) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      std::size_t smallest = i;
      const Node* best = &node;
      if (less(heap_[l], *best)) {
        smallest = l;
        best = &heap_[l];
      }
      const std::size_t r = l + 1;
      if (r < n && less(heap_[r], *best)) smallest = r;
      if (smallest == i) break;
      place(i, heap_[smallest]);
      i = smallest;
    }
    place(i, node);
  }

  void remove_at(std::size_t i) {
    release_handle(heap_[i].handle);
    const Node last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && less(last, heap_[parent(i)])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  std::vector<Node> heap_;
  std::uint64_t next_sequence_ = 0;

  // Heap position per handle (kNone = not in the heap). In dense mode the
  // handle is the key; in map mode handles_ and keys_ translate.
  std::vector<std::uint32_t> slots_;
  bool dense_ = false;
  std::unordered_map<Key, std::uint32_t> handles_;
  std::vector<Key> keys_;
  std::vector<std::uint32_t> free_handles_;
};

/// The policies' heap checkpoint codec (cache/policy_state.cpp): the entry
/// count, then {u64 key, double priority, u64 sequence} per entry in array
/// order, then the sequence counter. Keys are read through take_id(), so a
/// reader's id bound applies.
void save_heap(util::StateWriter& w,
               const IndexedMinHeap<ObjectId, double>& heap);
void restore_heap(util::StateReader& r,
                  IndexedMinHeap<ObjectId, double>& heap);

}  // namespace webcache::cache
