// LRU-K for K = 2 (O'Neil, O'Neil & Weikum, SIGMOD 1993).
//
// Evicts the object with the oldest *second*-most-recent access (backward
// K-distance). Objects with only one known access have infinite backward
// 2-distance and are evicted first — which on web workloads with ~50%
// one-timer requests acts as a natural scan filter.
//
// Faithful to the paper, access history is *retained* for objects after
// eviction (the Retained Information Period): re-inserting a document whose
// previous access is still on record immediately gives it a finite backward
// 2-distance. Without this, a scan can evict a working set before it ever
// earns its second reference and LRU-K degenerates. The history is bounded
// (FIFO) to keep memory proportional to the configured limit.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

class LruKPolicy final : public ReplacementPolicy {
 public:
  /// history_limit bounds the number of evicted documents whose last access
  /// time is retained.
  explicit LruKPolicy(std::size_t history_limit = 16384);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  /// Invalidation also retains the departing object's history.
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return "LRU-2"; }
  void clear() override;

  std::size_t history_size() const { return history_.size(); }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  /// Drops a resident slot and retains its last access.
  void remove(std::uint32_t slot);
  void remember(ObjectId id, std::uint64_t last_access);
  void prune_history();

  std::size_t history_limit_;

  // Min-heap on the penultimate access clock; objects with no known second
  // access sit in a sub-zero band ordered by their only access.
  IndexedMinHeap heap_;

  // Per resident slot: the document and its most recent access (the
  // policy's own copy, needed when evict() picks the slot as the victim).
  struct Resident {
    ObjectId id;
    std::uint64_t last_access;
  };
  std::vector<Resident> resident_;

  // Retained information: last known access of recently departed objects,
  // by document id — the one id-keyed structure of the policies, because
  // it outlives the objects' slots.
  std::unordered_map<ObjectId, std::uint64_t> history_;
  std::deque<std::pair<ObjectId, std::uint64_t>> history_fifo_;
};

}  // namespace webcache::cache
