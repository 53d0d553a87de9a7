// Array-backed intrusive LRU list.
//
// A recency list built on std::list costs a heap allocation per insert and a
// pointer chase per splice; the id -> iterator unordered_map adds a hash
// probe per touch. This list keeps its nodes in one contiguous vector
// (recycled through a free list) and links them by 32-bit indices, and the
// id -> node index can be switched from a hash map to a flat vector when the
// caller guarantees dense ids (reserve_ids). Order semantics are identical
// to the std::list formulation: push_front = MRU, back() = LRU victim.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cache/types.hpp"

namespace webcache::cache {

class LruIndexList {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Hint that every id passed from now on lies in [0, universe): the
  /// id -> node index becomes a flat vector. The first call is only legal
  /// while empty; later calls may extend the universe, never shrink it.
  void reserve_ids(std::uint64_t universe) {
    if (!dense_) {
      if (size_ != 0) {
        throw std::logic_error("LruIndexList: reserve_ids on non-empty list");
      }
      nodes_.reserve(static_cast<std::size_t>(universe));
    }
    extend_dense_index(dense_where_, universe, kNil, "LruIndexList");
    dense_ = true;
    where_.clear();
  }

  bool contains(ObjectId id) const { return find_node(id) != kNil; }

  /// Inserts id at the MRU end. Throws std::logic_error on duplicates.
  void push_front(ObjectId id) {
    if (find_node(id) != kNil) {
      throw std::logic_error("LruIndexList: duplicate insert");
    }
    const std::int32_t n = allocate_node(id);
    link_front(n);
    set_node(id, n);
    ++size_;
  }

  /// Moves id to the MRU end. Throws std::logic_error when absent.
  void move_to_front(ObjectId id) {
    const std::int32_t n = find_node(id);
    if (n == kNil) throw std::logic_error("LruIndexList: touch on absent id");
    if (head_ == n) return;
    unlink(n);
    link_front(n);
  }

  /// The LRU (coldest) id. Throws std::logic_error when empty.
  ObjectId back() const {
    if (tail_ == kNil) throw std::logic_error("LruIndexList: empty");
    return nodes_[static_cast<std::size_t>(tail_)].id;
  }

  /// Removes id. Throws std::logic_error when absent.
  void erase(ObjectId id) {
    const std::int32_t n = find_node(id);
    if (n == kNil) throw std::logic_error("LruIndexList: erase absent id");
    unlink(n);
    clear_node(id);
    free_.push_back(n);
    --size_;
  }

  /// Visits every id front (MRU) to back (LRU). The visited order is the
  /// list's complete semantic state: feeding it back through push_front in
  /// reverse rebuilds an equivalent list (node indices and free-list
  /// layout may differ; the eviction order cannot).
  template <typename Fn>
  void for_each_front_to_back(Fn&& fn) const {
    for (std::int32_t n = head_; n != kNil;
         n = nodes_[static_cast<std::size_t>(n)].next) {
      fn(nodes_[static_cast<std::size_t>(n)].id);
    }
  }

  /// Drops all entries; keeps the dense/sparse mode and the reserved index.
  void clear() {
    if (dense_) {
      dense_where_.assign(dense_where_.size(), kNil);
    } else {
      where_.clear();
    }
    nodes_.clear();
    free_.clear();
    head_ = tail_ = kNil;
    size_ = 0;
  }

 private:
  static constexpr std::int32_t kNil = -1;

  struct Node {
    ObjectId id = 0;
    std::int32_t prev = kNil;
    std::int32_t next = kNil;
  };

  std::int32_t find_node(ObjectId id) const {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      return i < dense_where_.size() ? dense_where_[i] : kNil;
    }
    const auto it = where_.find(id);
    return it == where_.end() ? kNil : it->second;
  }

  void set_node(ObjectId id, std::int32_t n) {
    if (dense_) {
      const auto i = static_cast<std::size_t>(id);
      if (i >= dense_where_.size()) {
        throw std::logic_error("LruIndexList: id outside reserved universe");
      }
      dense_where_[i] = n;
    } else {
      where_[id] = n;
    }
  }

  void clear_node(ObjectId id) {
    if (dense_) {
      dense_where_[static_cast<std::size_t>(id)] = kNil;
    } else {
      where_.erase(id);
    }
  }

  std::int32_t allocate_node(ObjectId id) {
    if (!free_.empty()) {
      const std::int32_t n = free_.back();
      free_.pop_back();
      nodes_[static_cast<std::size_t>(n)] = Node{id, kNil, kNil};
      return n;
    }
    nodes_.push_back(Node{id, kNil, kNil});
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  void link_front(std::int32_t n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) nodes_[static_cast<std::size_t>(head_)].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }

  void unlink(std::int32_t n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.prev != kNil) {
      nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNil) {
      nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
    node.prev = node.next = kNil;
  }

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_;
  std::int32_t head_ = kNil;
  std::int32_t tail_ = kNil;
  std::size_t size_ = 0;

  bool dense_ = false;
  std::unordered_map<ObjectId, std::int32_t> where_;
  std::vector<std::int32_t> dense_where_;
};

}  // namespace webcache::cache
