// Checkpoint serialization for every factory-constructible policy. Two
// class templates own every list and heap policy. The GreedyDual family's
// one save/restore pair (LFU, SIZE and LRU-2 included) sits with its class
// template in greedy_dual.cpp and writes its heap through save_heap below,
// then its value's state (LRU-2's and the beta estimators' are here); the
// recency-list family (list_policy.hpp, CLOCK included) has one pair here,
// which writes the list and then its promotion rule's state. LRU-MIN and
// RANDOM, which own neither structure, follow.
//
// One translation unit on purpose: the save/restore pair for each policy
// must stay in lockstep, and the conventions they share (LRU lists as
// MRU-to-LRU id sequences rebuilt by reverse push_front, heaps as
// {id, priority, sequence} entry sets plus the tie-break counter, per-id
// values sorted by id for deterministic bytes, mt19937_64 via its exact
// stream representation) are easiest to audit side by side.
//
// Policies key their state by object-table slot; the bytes carry document
// ids. Saving looks each slot's id up in the cache's ObjectTable, and
// restoring maps each id to the slot the table assigned it when the cache
// restored its objects (an id that is not resident fails the reader).
//
// Only *semantic* state is serialized — anything a future eviction
// decision can depend on. Slots, free lists and hash bucket counts are
// representation, deliberately rebuilt rather than preserved; the restored
// policy is bit-identical in behavior, not in memory image.

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/beta_estimator.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/list_policy.hpp"
#include "cache/lru_variants.hpp"
#include "cache/object_table.hpp"
#include "cache/random.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {

namespace {

std::uint64_t id_of(const ObjectTable& objects, std::uint32_t slot) {
  return objects.at(slot).id;
}

// The slot of a saved id, which must be resident.
std::uint32_t take_slot(util::StateReader& r, const ObjectTable& objects) {
  const CacheObject* obj = objects.find(r.take_id());
  if (obj == nullptr) r.fail("policy state names a non-resident document");
  return obj->slot;
}

std::vector<std::uint32_t> take_slot_run(util::StateReader& r,
                                         const ObjectTable& objects) {
  const std::uint64_t n = r.take_count(8, "id run");
  std::vector<std::uint32_t> slots;
  slots.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) slots.push_back(take_slot(r, objects));
  return slots;
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

void save_sorted(util::StateWriter& w,
                 std::vector<std::pair<ObjectId, std::uint64_t>> items) {
  std::sort(items.begin(), items.end());
  w.put_u64(items.size());
  for (const auto& [id, value] : items) {
    w.put_u64(id);
    w.put_u64(value);
  }
}

}  // namespace

void save_heap(util::StateWriter& w, const IndexedMinHeap& heap,
               const ObjectTable& objects) {
  w.put_u64(heap.size());
  heap.for_each_entry([&](const IndexedMinHeap::Entry& e) {
    w.put_u64(id_of(objects, e.key));
    w.put_double(e.priority);
    w.put_u64(e.sequence);
  });
  w.put_u64(heap.next_sequence());
}

void restore_heap(util::StateReader& r, IndexedMinHeap& heap,
                  const ObjectTable& objects) {
  using Entry = IndexedMinHeap::Entry;
  const std::uint64_t n = r.take_count(24, "heap entry");
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t key = take_slot(r, objects);
    const double priority = r.take_double();
    const std::uint64_t sequence = r.take_u64();
    entries.push_back(Entry{key, priority, sequence});
  }
  heap.restore(entries, r.take_u64());
}

// ---- recency-list family ---------------------------------------------------

template <class Promotion>
void ListPolicy<Promotion>::save_state(util::StateWriter& w,
                                       const ObjectTable& objects) const {
  w.put_u64(order_.size());
  order_.for_each_front_to_back(
      [&](std::uint32_t slot) { w.put_u64(id_of(objects, slot)); });
  rule_.save_state(w, order_, objects);
}

template <class Promotion>
void ListPolicy<Promotion>::restore_state(util::StateReader& r,
                                          const ObjectTable& objects) {
  const std::vector<std::uint32_t> slots = take_slot_run(r, objects);
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    order_.push_front(*it);
  }
  rule_.restore_state(r, order_, objects);
}

void ProbPromotion::save_state(util::StateWriter& w, const LruIndexList&,
                               const ObjectTable&) const {
  save_rng(w, rng_);
}

void ProbPromotion::restore_state(util::StateReader& r, const LruIndexList&,
                                  const ObjectTable&) {
  restore_rng(r, rng_);
}

void DelayPromotion::save_state(util::StateWriter& w,
                                const LruIndexList& order,
                                const ObjectTable&) const {
  order.for_each_front_to_back(
      [&](std::uint32_t slot) { w.put_u64(stamps_[slot]); });
}

void DelayPromotion::restore_state(util::StateReader& r,
                                   const LruIndexList& order,
                                   const ObjectTable&) {
  order.for_each_front_to_back(
      [&](std::uint32_t slot) { slot_entry(stamps_, slot) = r.take_u64(); });
}

void BatchPromotion::save_state(util::StateWriter& w, const LruIndexList&,
                                const ObjectTable& objects) const {
  w.put_u64(pending_.size());
  for (const std::uint32_t slot : pending_) w.put_u64(id_of(objects, slot));
}

void BatchPromotion::restore_state(util::StateReader& r, const LruIndexList&,
                                   const ObjectTable& objects) {
  pending_ = take_slot_run(r, objects);
}

void SecondChance::save_state(util::StateWriter& w, const LruIndexList& order,
                              const ObjectTable&) const {
  order.for_each_front_to_back(
      [&](std::uint32_t slot) { w.put_u32(counters_[slot]); });
}

void SecondChance::restore_state(util::StateReader& r,
                                 const LruIndexList& order,
                                 const ObjectTable&) {
  order.for_each_front_to_back([&](std::uint32_t slot) {
    const std::uint32_t counter = r.take_u32();
    // A counter above k would stretch the hand's walk past k revolutions.
    if (counter > k_) r.fail("CLOCK counter above its cap");
    slot_entry(counters_, slot) = counter;
  });
}

// One instantiation per rule, so each hit rule is inlined into its policy.
template class ListPolicy<AlwaysPromote>;
template class ListPolicy<NeverPromote>;
template class ListPolicy<ProbPromotion>;
template class ListPolicy<DelayPromotion>;
template class ListPolicy<BatchPromotion>;
template class ListPolicy<ClockPromotion>;
template class ListPolicy<DelayClockPromotion>;

// ---- LRU-MIN ---------------------------------------------------------------

// The layout groups residents by power-of-two size class (64 classes, size
// 0 with size 1), newest first within a class, each as {id, size, stamp}.
void LruMinPolicy::save_state(util::StateWriter& w,
                              const ObjectTable& objects) const {
  std::array<std::vector<std::size_t>, 64> classes;
  for (std::size_t pos = next_position_; pos-- > 0;) {
    const std::uint64_t leaf = tree_[pos];
    if (leaf == 0) continue;
    classes[std::max<std::size_t>(std::bit_width(leaf - 1), 1) - 1].push_back(
        pos);
  }
  w.put_u64(next_stamp_);
  for (const auto& positions : classes) {
    w.put_u64(positions.size());
    for (const std::size_t pos : positions) {
      w.put_u64(id_of(objects, entries_[pos].slot));
      w.put_u64(tree_[pos] - 1);
      w.put_u64(entries_[pos].stamp);
    }
  }
}

void LruMinPolicy::restore_state(util::StateReader& r,
                                 const ObjectTable& objects) {
  next_stamp_ = r.take_u64();
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>> saved;
  for (std::size_t c = 0; c < 64; ++c) {
    const std::uint64_t n = r.take_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t slot = take_slot(r, objects);
      const std::uint64_t size = r.take_u64();
      saved.emplace_back(r.take_u64(), slot, size);
    }
  }
  std::sort(saved.begin(), saved.end());  // by stamp: oldest first
  for (const auto& [stamp, slot, size] : saved) {
    if (slot_entry(position_, slot, kAbsent) != kAbsent) {
      throw std::logic_error("LruMinPolicy: duplicate id in saved state");
    }
    place(slot, size, stamp);
    ++resident_;
  }
}

// ---- RANDOM ----------------------------------------------------------------

void RandomPolicy::save_state(util::StateWriter& w,
                              const ObjectTable& objects) const {
  // The resident vector's order (shaped by swap-remove evictions) and the
  // draw stream position are both semantic: together they decide every
  // future victim.
  save_rng(w, rng_);
  w.put_u64(slots_.size());
  for (const std::uint32_t slot : slots_) w.put_u64(id_of(objects, slot));
}

void RandomPolicy::restore_state(util::StateReader& r,
                                 const ObjectTable& objects) {
  restore_rng(r, rng_);
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) add(take_slot(r, objects));
}

// ---- GreedyDual value state -----------------------------------------------

void LruKValue::save_state(util::StateWriter& w, const IndexedMinHeap& heap,
                           const ObjectTable&) const {
  std::vector<std::pair<ObjectId, std::uint64_t>> resident;
  heap.for_each_entry([&](const IndexedMinHeap::Entry& e) {
    resident.emplace_back(resident_[e.key].id, resident_[e.key].last_access);
  });
  save_sorted(w, std::move(resident));
  save_sorted(w, {history_.begin(), history_.end()});
  w.put_u64(history_fifo_.size());
  for (const auto& [id, stamp] : history_fifo_) {
    w.put_u64(id);
    w.put_u64(stamp);
  }
}

void LruKValue::restore_state(util::StateReader& r, const IndexedMinHeap&,
                              const ObjectTable& objects) {
  const std::uint64_t resident = r.take_u64();
  for (std::uint64_t i = 0; i < resident; ++i) {
    const std::uint32_t slot = take_slot(r, objects);
    slot_entry(resident_, slot) = Resident{objects.at(slot).id, r.take_u64()};
  }
  const std::uint64_t retained = r.take_u64();
  for (std::uint64_t i = 0; i < retained; ++i) {
    const ObjectId id = r.take_id();
    history_[id] = r.take_u64();
  }
  const std::uint64_t n = r.take_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const ObjectId id = r.take_id();
    const std::uint64_t stamp = r.take_u64();
    history_fifo_.emplace_back(id, stamp);
  }
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
  set_beta(r.take_double());
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
