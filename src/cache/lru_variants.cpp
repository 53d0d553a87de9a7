#include "cache/lru_variants.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace webcache::cache {

// ------------------------------------------------------------- LRU-MIN

std::uint64_t LruMinPolicy::max_of_children(std::size_t level,
                                            std::size_t node) const {
  const std::uint64_t* child = &tree_[level_start_[level - 1] + kFanout * node];
  return *std::max_element(child, child + kFanout);
}

void LruMinPolicy::set_leaf(std::size_t pos, std::uint64_t value) {
  tree_[pos] = value;
  // A node whose maximum does not change leaves its ancestors unchanged.
  for (std::size_t level = 1; level < level_start_.size(); ++level) {
    pos /= kFanout;
    const std::uint64_t max = max_of_children(level, pos);
    std::uint64_t& node = tree_[level_start_[level] + pos];
    if (node == max) break;
    node = max;
  }
}

void LruMinPolicy::compact() {
  // Residents keep their order and only move left, so this is in place.
  std::size_t live = 0;
  for (std::size_t pos = 0; pos < next_position_; ++pos) {
    if (tree_[pos] == 0) continue;
    position_[entries_[pos].slot] = live;
    tree_[live] = tree_[pos];
    entries_[live++] = entries_[pos];
  }
  next_position_ = live;
  // Each level is padded to whole groups of kFanout, so level l - 1 holds
  // exactly kFanout entries per node of level l; the last level is the root.
  const auto padded = [](std::size_t n) {
    return (n + kFanout - 1) / kFanout * kFanout;
  };
  width_ = padded(std::max<std::size_t>(64, 2 * (resident_ + 1)));
  level_start_.clear();
  std::size_t total = 0;
  for (std::size_t n = width_;; n = (n + kFanout - 1) / kFanout) {
    level_start_.push_back(total);
    total += padded(n);
    if (n == 1) break;
  }
  tree_.resize(total);
  std::fill(tree_.begin() + static_cast<std::ptrdiff_t>(live), tree_.end(), 0);
  entries_.resize(width_);
  for (std::size_t level = 1; level < level_start_.size(); ++level) {
    const std::size_t nodes =
        (level_start_[level] - level_start_[level - 1]) / kFanout;
    for (std::size_t node = 0; node < nodes; ++node) {
      tree_[level_start_[level] + node] = max_of_children(level, node);
    }
  }
}

void LruMinPolicy::place(std::uint32_t slot, std::uint64_t size,
                         std::uint64_t stamp) {
  if (next_position_ == width_) compact();
  const std::size_t pos = next_position_++;
  entries_[pos] = Entry{slot, stamp};
  set_leaf(pos, size + 1);
  position_[slot] = pos;
}

void LruMinPolicy::on_insert(const CacheObject& obj) {
  if (slot_entry(position_, obj.slot, kAbsent) != kAbsent) {
    throw std::logic_error("LruMinPolicy: duplicate insert");
  }
  place(obj.slot, obj.size, next_stamp_++);
  ++resident_;
}

void LruMinPolicy::on_hit(const CacheObject& obj) {
  if (obj.slot >= position_.size() || position_[obj.slot] == kAbsent) {
    throw std::logic_error("LruMinPolicy: hit on absent slot");
  }
  // Moves to the newest position, with the size the container holds now.
  set_leaf(static_cast<std::size_t>(position_[obj.slot]), 0);
  place(obj.slot, obj.size, next_stamp_++);
}

std::uint32_t LruMinPolicy::evict(std::uint64_t incoming_size) {
  if (resident_ == 0) throw std::logic_error("LruMinPolicy: empty");
  // Halve S until some document has size >= S, i.e. a leaf (size + 1)
  // exceeds S. S = 0 accepts anything, so the loop ends.
  std::uint64_t threshold = incoming_size;
  while (tree_[level_start_.back()] <= threshold) threshold /= 2;
  // Descend to the leftmost leaf above S: in each node, the first child
  // above S (the node's own maximum guarantees one).
  std::size_t pos = 0;
  for (std::size_t level = level_start_.size() - 1; level-- > 0;) {
    const std::uint64_t* child = &tree_[level_start_[level] + kFanout * pos];
    std::size_t c = 0;
    while (child[c] <= threshold) ++c;
    pos = kFanout * pos + c;
  }
  const std::uint32_t victim = entries_[pos].slot;
  remove(victim);
  return victim;
}

void LruMinPolicy::on_erase(const CacheObject& obj) { remove(obj.slot); }

void LruMinPolicy::remove(std::uint32_t slot) {
  if (slot >= position_.size() || position_[slot] == kAbsent) {
    throw std::logic_error("LruMinPolicy: removing absent slot");
  }
  set_leaf(static_cast<std::size_t>(position_[slot]), 0);
  position_[slot] = kAbsent;
  --resident_;
}

void LruMinPolicy::clear() {
  tree_.clear();
  level_start_.clear();
  entries_.clear();
  width_ = 0;
  next_position_ = 0;
  position_.clear();
  next_stamp_ = 0;
  resident_ = 0;
}

}  // namespace webcache::cache
