// LRU-MIN, a size-aware LRU variant from the pre-GreedyDual literature
// (Abrams, Standridge, Abdulla, Williams & Fox, "Caching proxies:
// limitations and potentials", WWW 1995/1996) — one of the baselines GDS
// was designed to beat. Included for the extended comparison benchmarks;
// its sibling LRU-THOLD is a ListPolicy (list_policy.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/policy.hpp"

namespace webcache::cache {

/// LRU-MIN: prefer evicting documents at least as large as the incoming
/// one. Let S be the incoming size; evict the least recently used document
/// with size >= S; if none exists, halve S and repeat (degenerating to
/// plain LRU at S = 0).
///
/// Implementation: resident documents sit at recency positions, oldest
/// first, and a max-tree over the positions (8 children per node, one
/// cache line) holds each document's size. S halves until it is at most
/// the largest resident size (the root), and one root-to-leaf descent then
/// finds the leftmost, i.e. least recent, position whose size clears S.
/// Every operation is O(log positions) with the naive formulation's
/// victims. Positions are handed out in order and compacted (order kept)
/// when they run out.
class LruMinPolicy final : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return "LRU-MIN"; }
  void clear() override;

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};
  static constexpr std::size_t kFanout = 8;

  struct Entry {
    std::uint32_t slot;
    std::uint64_t stamp;  // global recency, checkpointed: larger = newer
  };

  /// Gives `slot` the next recency position, compacting first when full.
  void place(std::uint32_t slot, std::uint64_t size, std::uint64_t stamp);
  /// Sets position `pos`'s leaf (size + 1; 0 = vacant) and its ancestors.
  void set_leaf(std::size_t pos, std::uint64_t value);
  /// The largest of the kFanout children of `node` at `level` (>= 1).
  std::uint64_t max_of_children(std::size_t level, std::size_t node) const;
  /// Renumbers the resident documents to positions 0.. in recency order,
  /// into a tree twice their count.
  void compact();
  /// Vacates the position of a resident slot.
  void remove(std::uint32_t slot);

  // Every level of the tree, leaves (one per position) first; level l
  // starts at tree_[level_start_[l]] and the last level is the root.
  std::vector<std::uint64_t> tree_;
  std::vector<std::size_t> level_start_;
  std::vector<Entry> entries_;  // by position
  std::size_t width_ = 0;  // leaves: positions until the next compaction
  std::size_t next_position_ = 0;
  std::uint64_t next_stamp_ = 0;
  std::size_t resident_ = 0;
  std::vector<std::uint64_t> position_;  // slot -> position; kAbsent = none
};

}  // namespace webcache::cache
