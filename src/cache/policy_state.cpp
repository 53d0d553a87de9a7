// Checkpoint serialization for every factory-constructible policy.
//
// One translation unit on purpose: the save/restore pair for each policy
// must stay in lockstep, and the conventions they share (LRU lists as
// MRU-to-LRU id sequences rebuilt by reverse push_front, heaps as
// {key, priority, sequence} entry sets plus the tie-break counter, hash
// maps sorted by id for deterministic bytes, mt19937_64 via its exact
// stream representation) are easiest to audit side by side.
//
// Only *semantic* state is serialized — anything a future eviction
// decision can depend on. Free-list layouts, heap array order and hash
// bucket counts are representation, deliberately rebuilt rather than
// preserved; the restored policy is bit-identical in behavior, not in
// memory image.

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "cache/beta_estimator.hpp"
#include "cache/clock.hpp"
#include "cache/fifo.hpp"
#include "cache/gds.hpp"
#include "cache/gdsf.hpp"
#include "cache/gdstar.hpp"
#include "cache/gdstar_class.hpp"
#include "cache/lazy_lru.hpp"
#include "cache/lfu.hpp"
#include "cache/lfu_da.hpp"
#include "cache/lru.hpp"
#include "cache/lru_k.hpp"
#include "cache/lru_variants.hpp"
#include "cache/random.hpp"
#include "cache/size_policy.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {

namespace {

void save_list(util::StateWriter& w, const LruIndexList& list) {
  w.put_u64(list.size());
  list.for_each_front_to_back([&](ObjectId id) { w.put_u64(id); });
}

std::vector<ObjectId> take_id_run(util::StateReader& r) {
  const std::uint64_t n = r.take_count(8, "id run");
  std::vector<ObjectId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(r.take_u64());
  return ids;
}

void restore_list(util::StateReader& r, LruIndexList& list) {
  const std::vector<ObjectId> ids = take_id_run(r);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) list.push_front(*it);
}

void save_heap(util::StateWriter& w, const IndexedMinHeap<ObjectId, double>& heap) {
  w.put_u64(heap.size());
  heap.for_each_entry([&](const IndexedMinHeap<ObjectId, double>::Entry& e) {
    w.put_u64(e.key);
    w.put_double(e.priority);
    w.put_u64(e.sequence);
  });
  w.put_u64(heap.next_sequence());
}

void restore_heap(util::StateReader& r, IndexedMinHeap<ObjectId, double>& heap) {
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId key = r.take_u64();
    const double priority = r.take_double();
    const std::uint64_t sequence = r.take_u64();
    heap.restore_entry(key, priority, sequence);
  }
  heap.set_next_sequence(r.take_u64());
}

void save_rng(util::StateWriter& w, const util::Rng& rng) {
  std::ostringstream os;
  os << rng.engine();
  w.put_string(os.str());
}

void restore_rng(util::StateReader& r, util::Rng& rng) {
  std::istringstream is(r.take_string());
  is >> rng.engine();
  if (is.fail()) r.fail("malformed mt19937_64 state");
}

template <typename Map>
void save_sorted_map(util::StateWriter& w, const Map& map) {
  std::vector<std::pair<ObjectId, typename Map::mapped_type>> items(
      map.begin(), map.end());
  std::sort(items.begin(), items.end());
  w.put_u64(items.size());
  for (const auto& [id, value] : items) {
    w.put_u64(id);
    w.put_u64(static_cast<std::uint64_t>(value));
  }
}

template <typename Map>
void restore_map(util::StateReader& r, Map& map) {
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_u64();
    map[id] = static_cast<typename Map::mapped_type>(r.take_u64());
  }
}

}  // namespace

// ---- LRU family ------------------------------------------------------------

void LruPolicy::save_state(util::StateWriter& w) const { save_list(w, order_); }
void LruPolicy::restore_state(util::StateReader& r) { restore_list(r, order_); }

void LruThresholdPolicy::save_state(util::StateWriter& w) const {
  save_list(w, order_);
}
void LruThresholdPolicy::restore_state(util::StateReader& r) {
  restore_list(r, order_);
}

// ---- FIFO ------------------------------------------------------------------

void FifoPolicy::save_state(util::StateWriter& w) const {
  w.put_u64(order_.size());
  for (const ObjectId id : order_) w.put_u64(id);
  save_sorted_map(w, tombstones_);
  std::vector<ObjectId> resident(resident_.begin(), resident_.end());
  std::sort(resident.begin(), resident.end());
  w.put_u64(resident.size());
  for (const ObjectId id : resident) w.put_u64(id);
}

void FifoPolicy::restore_state(util::StateReader& r) {
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) order_.push_back(r.take_u64());
  restore_map(r, tombstones_);
  const std::uint64_t m = r.take_u64();
  for (std::uint64_t i = 0; i < m; ++i) resident_.insert(r.take_u64());
}

// ---- heap-ordered family ---------------------------------------------------

void SizePolicy::save_state(util::StateWriter& w) const { save_heap(w, heap_); }
void SizePolicy::restore_state(util::StateReader& r) { restore_heap(r, heap_); }

void LfuPolicy::save_state(util::StateWriter& w) const { save_heap(w, heap_); }
void LfuPolicy::restore_state(util::StateReader& r) { restore_heap(r, heap_); }

void LfuDaPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  w.put_double(cache_age_);
}
void LfuDaPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  cache_age_ = r.take_double();
}

void GdsPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  w.put_double(inflation_);
}
void GdsPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  inflation_ = r.take_double();
}

void GdsfPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  w.put_double(inflation_);
}
void GdsfPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  inflation_ = r.take_double();
}

void GdStarPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  w.put_double(inflation_);
  estimator_.save_state(w);
}
void GdStarPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  inflation_ = r.take_double();
  estimator_.restore_state(r);
}

void GdStarPerClassPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  w.put_double(inflation_);
  for (const BetaEstimator& e : estimators_) e.save_state(w);
}
void GdStarPerClassPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  inflation_ = r.take_double();
  for (BetaEstimator& e : estimators_) e.restore_state(r);
}

// ---- LRU-2 -----------------------------------------------------------------

void LruKPolicy::save_state(util::StateWriter& w) const {
  save_heap(w, heap_);
  save_sorted_map(w, resident_last_);
  save_sorted_map(w, history_);
  w.put_u64(history_fifo_.size());
  for (const auto& [id, stamp] : history_fifo_) {
    w.put_u64(id);
    w.put_u64(stamp);
  }
}

void LruKPolicy::restore_state(util::StateReader& r) {
  restore_heap(r, heap_);
  restore_map(r, resident_last_);
  restore_map(r, history_);
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_u64();
    const std::uint64_t stamp = r.take_u64();
    history_fifo_.emplace_back(id, stamp);
  }
}

// ---- LRU-MIN ---------------------------------------------------------------

void LruMinPolicy::save_state(util::StateWriter& w) const {
  w.put_u64(next_stamp_);
  for (const auto& bucket : buckets_) {
    w.put_u64(bucket.size());
    for (const Entry& e : bucket) {  // front (MRU) to back (LRU)
      w.put_u64(e.id);
      w.put_u64(e.size);
      w.put_u64(e.stamp);
    }
  }
}

void LruMinPolicy::restore_state(util::StateReader& r) {
  next_stamp_ = r.take_u64();
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = r.take_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const ObjectId id = r.take_u64();
      const std::uint64_t size = r.take_u64();
      const std::uint64_t stamp = r.take_u64();
      buckets_[b].push_back(Entry{id, size, stamp});
      make_slot(id) = Slot{b, std::prev(buckets_[b].end())};
      ++resident_;
    }
  }
}

// ---- RANDOM ----------------------------------------------------------------

void RandomPolicy::save_state(util::StateWriter& w) const {
  // The resident vector's order (shaped by swap-remove evictions) and the
  // draw stream position are both semantic: together they decide every
  // future victim.
  save_rng(w, rng_);
  w.put_u64(ids_.size());
  for (const ObjectId id : ids_) w.put_u64(id);
}

void RandomPolicy::restore_state(util::StateReader& r) {
  restore_rng(r, rng_);
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_u64();
    set_position(id, static_cast<std::uint32_t>(ids_.size()));
    ids_.push_back(id);
  }
}

// ---- CLOCK / DELAY-CLOCK ---------------------------------------------------

void SecondChancePolicy::save_state(util::StateWriter& w) const {
  w.put_u64(ring_.size());
  ring_.for_each_front_to_back([&](ObjectId id) {
    w.put_u64(id);
    w.put_u32(counter_of(id));
  });
}

void SecondChancePolicy::restore_state(util::StateReader& r) {
  const std::uint64_t n = r.take_count(8 + 4, "ring entry");
  std::vector<std::pair<ObjectId, std::uint32_t>> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_u64();
    const std::uint32_t counter = r.take_u32();
    entries.emplace_back(id, counter);
  }
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    ring_.push_front(it->first);
    set_counter(it->first, it->second);
  }
}

// ---- lazy-promotion LRU variants -------------------------------------------

void ProbLruPolicy::save_state(util::StateWriter& w) const {
  save_rng(w, rng_);
  save_list(w, order_);
}

void ProbLruPolicy::restore_state(util::StateReader& r) {
  restore_rng(r, rng_);
  restore_list(r, order_);
}

void DelayLruPolicy::save_state(util::StateWriter& w) const {
  w.put_u64(order_.size());
  order_.for_each_front_to_back([&](ObjectId id) {
    w.put_u64(id);
    w.put_u64(stamp_of(id));
  });
}

void DelayLruPolicy::restore_state(util::StateReader& r) {
  const std::uint64_t n = r.take_count(8 + 8, "delay entry");
  std::vector<std::pair<ObjectId, std::uint64_t>> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_u64();
    const std::uint64_t stamp = r.take_u64();
    entries.emplace_back(id, stamp);
  }
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    order_.push_front(it->first);
    set_stamp(it->first, it->second);
  }
}

void BatchPromotionPolicy::save_state(util::StateWriter& w) const {
  save_list(w, order_);
  w.put_u64(pending_.size());
  for (const ObjectId id : pending_) w.put_u64(id);
}

void BatchPromotionPolicy::restore_state(util::StateReader& r) {
  restore_list(r, order_);
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) pending_.push_back(r.take_u64());
}

// ---- beta estimator --------------------------------------------------------

void BetaEstimator::save_state(util::StateWriter& w) const {
  w.put_double(beta_);
  w.put_u64(samples_);
  w.put_u64(since_refit_);
  const std::vector<double>& counts = histogram_.raw_counts();
  w.put_u64(counts.size());
  for (const double c : counts) w.put_double(c);
  w.put_double(histogram_.total_weight());
}

void BetaEstimator::restore_state(util::StateReader& r) {
  beta_ = r.take_double();
  samples_ = r.take_u64();
  since_refit_ = r.take_u64();
  const std::uint64_t n = r.take_count(8, "beta histogram bin");
  std::vector<double> counts;
  counts.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) counts.push_back(r.take_double());
  const double total = r.take_double();
  histogram_.restore_counts(std::move(counts), total);
}

}  // namespace webcache::cache
