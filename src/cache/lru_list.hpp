// Array-backed intrusive LRU list over object-table slots.
//
// A recency list built on std::list costs a heap allocation per insert and a
// pointer chase per splice, plus an id -> iterator map probe per touch. Here
// the node of an object *is* its slot (CacheObject::slot): nodes_[slot]
// holds the 32-bit links, so a touch is one array access with no index and
// no node free list, and the array follows the object table's slot
// high-water mark. Order semantics are those of the std::list formulation:
// push_front = MRU, back() = LRU victim.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cache/types.hpp"

namespace webcache::cache {

class LruIndexList {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  bool contains(std::uint32_t slot) const {
    return slot < nodes_.size() && nodes_[slot].prev != kAbsent;
  }

  /// Inserts slot at the MRU end. Throws std::logic_error on duplicates.
  void push_front(std::uint32_t slot) {
    if (slot >= kAbsent) throw std::logic_error("LruIndexList: bad slot");
    if (slot_entry(nodes_, slot).prev != kAbsent) {
      throw std::logic_error("LruIndexList: duplicate insert");
    }
    link_front(slot);
    ++size_;
  }

  /// Moves slot to the MRU end. Throws std::logic_error when absent.
  void move_to_front(std::uint32_t slot) {
    if (!contains(slot)) {
      throw std::logic_error("LruIndexList: touch on absent slot");
    }
    if (head_ == slot) return;
    unlink(slot);
    link_front(slot);
  }

  /// The LRU (coldest) slot. Throws std::logic_error when empty.
  std::uint32_t back() const {
    if (tail_ == kNil) throw std::logic_error("LruIndexList: empty");
    return tail_;
  }

  /// Removes slot. Throws std::logic_error when absent.
  void erase(std::uint32_t slot) {
    if (!contains(slot)) {
      throw std::logic_error("LruIndexList: erase absent slot");
    }
    unlink(slot);
    nodes_[slot].prev = kAbsent;
    --size_;
  }

  /// Removes and returns the LRU slot. Throws std::logic_error when empty.
  std::uint32_t pop_back() {
    const std::uint32_t slot = back();
    erase(slot);
    return slot;
  }

  /// Visits every slot front (MRU) to back (LRU). The visited order is the
  /// list's complete semantic state: feeding it back through push_front in
  /// reverse rebuilds an equivalent list under any slot numbering.
  template <typename Fn>
  void for_each_front_to_back(Fn&& fn) const {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next) fn(n);
  }

  void clear() {
    nodes_.clear();
    head_ = tail_ = kNil;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kAbsent = 0xfffffffeu;  // prev of a non-member

  struct Node {
    std::uint32_t prev = kAbsent;
    std::uint32_t next = kNil;
  };

  void link_front(std::uint32_t n) {
    Node& node = nodes_[n];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }

  void unlink(std::uint32_t n) {
    const Node node = nodes_[n];
    if (node.prev != kNil) {
      nodes_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNil) {
      nodes_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
  }

  std::vector<Node> nodes_;  // by slot
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace webcache::cache
