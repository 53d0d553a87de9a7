// Indexed binary min-heap over slot keys.
//
// The value-based policies (the GreedyDual family, LRU-2) must, on every
// hit, update the priority of an arbitrary resident object and, on
// eviction, pop the minimum. A binary heap with a key -> position index
// gives O(log n) for both, and (unlike std::priority_queue) supports
// decrease/increase-key and erase-by-key.
//
// Keys are u32 object-table slots (CacheObject::slot), so the position
// index is a flat std::vector<u32> indexed by key, grown to cover the
// largest key pushed: it follows the table's slot high-water mark, never
// the document universe.
//
// Layout. Each array entry is 16 bytes — {double priority, u32 key, u32
// sequence}. sift_up and sift_down move a hole rather than swapping, so
// each level costs one entry write and one index write. The hole method
// makes exactly the comparisons the swap method would, so the array layout
// (and hence for_each_entry's order, which the checkpoint writer
// serializes) is the swap method's.
//
// Ties are broken by insertion sequence (FIFO among equal priorities), which
// makes every policy fully deterministic and replay-stable; keys never
// affect ordering, so neither does the slot assignment. Sequences are stored
// in 32 bits: when the counter would pass 2^32, the live entries are
// renumbered 0..n-1 in their existing sequence order, as are restored
// entries whose saved sequences do not fit. Only the relative order of
// sequences is ever compared, so renumbering cannot change the pop order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cache/types.hpp"

namespace webcache::util {
class StateWriter;
class StateReader;
}  // namespace webcache::util

namespace webcache::cache {

class ObjectTable;

class IndexedMinHeap {
 public:
  using Key = std::uint32_t;

  /// An entry as callers see it; sequence is the tie-breaker (lower =
  /// inserted earlier).
  struct Entry {
    Key key;
    double priority;
    std::uint64_t sequence;
  };

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(Key key) const { return find_position(key) != kNone; }

  /// Inserts a new key. Throws std::logic_error if the key is present,
  /// std::invalid_argument for the reserved key 2^32 - 1.
  void push(Key key, double priority) {
    acquire(key);
    if (next_sequence_ > kMaxSequence) renumber_sequences();
    const auto sequence = static_cast<std::uint32_t>(next_sequence_++);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Node{priority, key, sequence});
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
  void update(Key key, double priority) {
    const std::size_t i = position_of(key);
    Node node = heap_[i];
    const double old = node.priority;
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
  void erase(Key key) { remove_at(position_of(key)); }

  /// Priority currently stored for key. Throws if absent.
  double priority_of(Key key) const {
    return heap_[position_of(key)].priority;
  }

  void clear() {
    heap_.clear();
    positions_.clear();
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
      acquire(entries[i].key);
      heap_.emplace_back();
      sift_up(heap_.size() - 1,
              Node{entries[i].priority, entries[i].key,
                   static_cast<std::uint32_t>(sequences[i])});
    }
    next_sequence_ = next_sequence;
  }

  /// Sets the sequence the next push receives; at 2^32 or more, that push
  /// renumbers the live entries first.
  void set_next_sequence(std::uint64_t next) { next_sequence_ = next; }

  /// Validates the heap property and the position index; test support.
  bool check_invariants() const {
    std::size_t indexed = 0;
    for (const std::uint32_t s : positions_) {
      if (s != kNone) ++indexed;
    }
    if (heap_.size() != indexed) return false;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (find_position(heap_[i].key) != i) return false;
      if (heap_[i].sequence >= next_sequence_) return false;
      if (i > 0 && less(heap_[i], heap_[parent(i)])) return false;
    }
    return true;
  }

 private:
  struct Node {
    double priority;
    Key key;
    std::uint32_t sequence;
  };
  static_assert(sizeof(Node) == 16, "heap entries must be 16 bytes");

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

  static Entry entry_of(const Node& node) {
    return Entry{node.key, node.priority, node.sequence};
  }

  std::uint32_t find_position(Key key) const {
    return key < positions_.size() ? positions_[key] : kNone;
  }

  std::size_t position_of(Key key) const {
    const std::uint32_t position = find_position(key);
    if (position == kNone) {
      throw std::logic_error("IndexedMinHeap: key not present");
    }
    return position;
  }

  // Checks that a new key can enter the heap; throws, changing nothing,
  // if it is present or reserved.
  void acquire(Key key) {
    if (key == kNone) {
      throw std::invalid_argument("IndexedMinHeap: key 2^32 - 1 is reserved");
    }
    if (slot_entry(positions_, key, kNone) != kNone) {
      throw std::logic_error("IndexedMinHeap: duplicate key");
    }
  }

  void place(std::size_t i, const Node& node) {
    heap_[i] = node;
    positions_[node.key] = static_cast<std::uint32_t>(i);
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
    positions_[heap_[i].key] = kNone;
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
  std::vector<std::uint32_t> positions_;  // heap position per key; kNone = absent
};

/// The policies' heap checkpoint codec (cache/policy_state.cpp): the entry
/// count, then {u64 document id, double priority, u64 sequence} per entry
/// in array order, then the sequence counter. Keys are slots of `objects`:
/// save writes each slot's id, restore reads ids through take_id() (so a
/// reader's id bound applies) and keys each entry by the id's slot.
void save_heap(util::StateWriter& w, const IndexedMinHeap& heap,
               const ObjectTable& objects);
void restore_heap(util::StateReader& r, IndexedMinHeap& heap,
                  const ObjectTable& objects);

}  // namespace webcache::cache
