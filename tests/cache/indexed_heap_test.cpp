#include "cache/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/object_table.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {
namespace {

using Heap = IndexedMinHeap;
using Key = Heap::Key;

TEST(IndexedHeap, EmptyBehaviour) {
  Heap h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_THROW(h.top(), std::logic_error);
  EXPECT_THROW(h.pop(), std::logic_error);
}

TEST(IndexedHeap, PushPopOrdersByPriority) {
  Heap h;
  h.push(1, 5.0);
  h.push(2, 1.0);
  h.push(3, 3.0);
  EXPECT_EQ(h.pop().key, 2u);
  EXPECT_EQ(h.pop().key, 3u);
  EXPECT_EQ(h.pop().key, 1u);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, DuplicateKeyThrows) {
  Heap h;
  h.push(1, 1.0);
  EXPECT_THROW(h.push(1, 2.0), std::logic_error);
}

TEST(IndexedHeap, TieBreaksFifo) {
  Heap h;
  h.push(10, 1.0);
  h.push(20, 1.0);
  h.push(30, 1.0);
  EXPECT_EQ(h.pop().key, 10u);
  EXPECT_EQ(h.pop().key, 20u);
  EXPECT_EQ(h.pop().key, 30u);
}

TEST(IndexedHeap, UpdateRaisesPriority) {
  Heap h;
  h.push(1, 1.0);
  h.push(2, 2.0);
  h.update(1, 10.0);
  EXPECT_EQ(h.top().key, 2u);
}

TEST(IndexedHeap, UpdateLowersPriority) {
  Heap h;
  h.push(1, 5.0);
  h.push(2, 4.0);
  h.update(1, 0.5);
  EXPECT_EQ(h.top().key, 1u);
}

TEST(IndexedHeap, UpdateAbsentThrows) {
  Heap h;
  EXPECT_THROW(h.update(9, 1.0), std::logic_error);
}

TEST(IndexedHeap, UpdateKeepsSequenceForTies) {
  Heap h;
  h.push(1, 1.0);
  h.push(2, 2.0);
  h.update(2, 1.0);  // now equal; 1 was inserted earlier
  EXPECT_EQ(h.top().key, 1u);
}

TEST(IndexedHeap, EraseArbitraryKey) {
  Heap h;
  h.push(1, 1.0);
  h.push(2, 2.0);
  h.push(3, 3.0);
  h.erase(2);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_FALSE(h.contains(2));
  EXPECT_EQ(h.pop().key, 1u);
  EXPECT_EQ(h.pop().key, 3u);
}

TEST(IndexedHeap, EraseAbsentThrows) {
  Heap h;
  h.push(1, 1.0);
  EXPECT_THROW(h.erase(2), std::logic_error);
}

TEST(IndexedHeap, PriorityOf) {
  Heap h;
  h.push(7, 3.25);
  EXPECT_DOUBLE_EQ(h.priority_of(7), 3.25);
  EXPECT_THROW(h.priority_of(8), std::logic_error);
}

TEST(IndexedHeap, ClearEmpties) {
  Heap h;
  h.push(1, 1.0);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.push(1, 1.0);  // reusable after clear
  EXPECT_EQ(h.size(), 1u);
}

TEST(IndexedHeapProperty, RandomizedOperationsKeepInvariantsAndOrder) {
  util::Rng rng(99);
  Heap h;
  std::vector<Key> live;
  Key next_key = 0;

  for (int step = 0; step < 5000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.5 || live.empty()) {
      h.push(next_key, rng.uniform(0, 100));
      live.push_back(next_key);
      ++next_key;
    } else if (dice < 0.75) {
      const auto& key = live[rng.below(live.size())];
      h.update(key, rng.uniform(0, 100));
    } else {
      const auto idx = rng.below(live.size());
      h.erase(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(h.check_invariants());
    }
  }
  ASSERT_TRUE(h.check_invariants());

  // Draining pop() must yield non-decreasing priorities.
  double last = -1.0;
  while (!h.empty()) {
    const auto entry = h.pop();
    EXPECT_GE(entry.priority, last);
    last = entry.priority;
  }
}

TEST(IndexedHeapProperty, MatchesSortReference) {
  util::Rng rng(7);
  Heap h;
  std::vector<std::pair<double, Key>> reference;
  for (Key k = 0; k < 300; ++k) {
    const double p = rng.uniform(0, 10);
    h.push(k, p);
    reference.emplace_back(p, k);
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [p, k] : reference) {
    const auto entry = h.pop();
    EXPECT_EQ(entry.key, k);
    EXPECT_DOUBLE_EQ(entry.priority, p);
  }
}

// ---- differential test against a std::set reference -----------------------

// The reference orders live keys by (priority, insertion number). Its
// insertion numbers are never renumbered, so it also checks that the heap's
// 32-bit sequence renumbering keeps the relative order.
class ReferenceHeap {
 public:
  bool contains(std::uint64_t key) const { return by_key_.count(key) != 0; }
  std::size_t size() const { return by_key_.size(); }

  void push(std::uint64_t key, double priority) {
    const Slot slot{priority, next_++};
    by_key_[key] = slot;
    order_.emplace(slot, key);
  }
  void update(std::uint64_t key, double priority) {
    Slot& slot = by_key_.at(key);
    order_.erase({slot, key});
    slot.first = priority;
    order_.emplace(slot, key);
  }
  void erase(std::uint64_t key) {
    order_.erase({by_key_.at(key), key});
    by_key_.erase(key);
  }
  std::pair<std::uint64_t, double> top() const {
    const auto& [slot, key] = *order_.begin();
    return {key, slot.first};
  }
  double priority_of(std::uint64_t key) const { return by_key_.at(key).first; }

 private:
  using Slot = std::pair<double, std::uint64_t>;  // (priority, insertion)
  std::map<std::uint64_t, Slot> by_key_;
  std::set<std::pair<Slot, std::uint64_t>> order_;
  std::uint64_t next_ = 0;
};

struct DifferentialRun {
  std::uint64_t seed = 1;
  int steps = 20000;
};

// Few distinct priorities, so equal priorities (the sequence tie-break) are
// common; updates move an entry up, down or not at all.
double draw_priority(util::Rng& rng) {
  return static_cast<double>(rng.below(16));
}

// Drives `h` and the reference through one random mix of push, update,
// erase and pop, comparing every observable result.
void run_differential(Heap& h, const DifferentialRun& run) {
  constexpr Key kUniverse = 512;
  util::Rng rng(run.seed);
  ReferenceHeap ref;
  std::vector<Key> live;
  const auto remove_live = [&](Key key) {
    const auto it = std::find(live.begin(), live.end(), key);
    ASSERT_NE(it, live.end());
    *it = live.back();
    live.pop_back();
  };

  for (int step = 0; step < run.steps; ++step) {
    const double dice = rng.uniform();
    if (live.empty() || dice < 0.4) {
      const auto key = static_cast<Key>(rng.below(kUniverse));
      const double priority = draw_priority(rng);
      if (ref.contains(key)) {
        EXPECT_THROW(h.push(key, priority), std::logic_error);
        continue;
      }
      h.push(key, priority);
      ref.push(key, priority);
      live.push_back(key);
    } else if (dice < 0.7) {
      const Key key = live[rng.below(live.size())];
      const double old = ref.priority_of(key);
      const double third = rng.uniform();
      const double priority = third < 0.25   ? old
                              : third < 0.5  ? old + 1.0 + draw_priority(rng)
                              : third < 0.75 ? old - 1.0 - draw_priority(rng)
                                             : draw_priority(rng);
      h.update(key, priority);
      ref.update(key, priority);
    } else if (dice < 0.85) {
      const Key key = live[rng.below(live.size())];
      h.erase(key);
      ref.erase(key);
      remove_live(key);
    } else {
      const auto [key, priority] = ref.top();
      const auto entry = h.pop();
      ASSERT_EQ(entry.key, key) << "step " << step;
      ASSERT_EQ(entry.priority, priority) << "step " << step;
      ref.erase(key);
      remove_live(key);
    }
    ASSERT_EQ(h.size(), ref.size());
    if (!live.empty()) {
      ASSERT_EQ(h.top().key, ref.top().first) << "step " << step;
    }
    if (step % 257 == 0) {
      ASSERT_TRUE(h.check_invariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(h.check_invariants());
  while (ref.size() > 0) {
    ASSERT_EQ(h.pop().key, ref.top().first);
    ref.erase(ref.top().first);
  }
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeapDifferential, DenseModeMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Heap h;
    run_differential(h, {seed, 20000});
  }
}

constexpr std::uint64_t kSequenceWrap = std::uint64_t{1} << 32;

TEST(IndexedHeapDifferential, CrossesSequenceRenumbering) {
  Heap h;
  h.set_next_sequence(kSequenceWrap - 8);
  run_differential(h, {11, 5000});
  EXPECT_LT(h.next_sequence(), kSequenceWrap);
}

TEST(IndexedHeapDifferential, RenumberingKeepsFifoTies) {
  // Sixteen equal priorities: eight pushed with the last eight 32-bit
  // sequences, eight after the renumbering. Pops must stay FIFO.
  Heap h;
  h.set_next_sequence(kSequenceWrap - 8);
  for (Key k = 0; k < 16; ++k) h.push(k, 1.0);
  ASSERT_TRUE(h.check_invariants());
  EXPECT_EQ(h.next_sequence(), 16u);
  for (Key k = 0; k < 16; ++k) EXPECT_EQ(h.pop().key, k);
}

// The checkpoint codec writes document ids, not slots: slot k of this
// table holds document 1000 + k.
const ObjectTable& id_table() {
  static const ObjectTable table = [] {
    ObjectTable t;
    for (ObjectId id = 1000; id < 1200; ++id) {
      CacheObject obj;
      obj.id = id;
      t.insert(obj);
    }
    return t;
  }();
  return table;
}

std::vector<std::uint8_t> saved(const Heap& h) {
  util::StateWriter w;
  save_heap(w, h, id_table());
  return w.take();
}

Heap restored(const std::vector<std::uint8_t>& bytes) {
  Heap h;
  util::StateReader r(bytes.data(), bytes.size(), "heap");
  restore_heap(r, h, id_table());
  r.expect_end();
  return h;
}

TEST(IndexedHeapDifferential, SaveRestoreRoundTripAcrossRenumbering) {
  util::Rng rng(21);
  Heap a;
  a.set_next_sequence(kSequenceWrap - 8);
  for (Key k = 0; k < 6; ++k) a.push(k * 7, draw_priority(rng));
  a.update(7, 100.0);

  // A restored copy rebuilds the very same array, so it saves the same
  // bytes; both then cross the renumbering in step.
  const std::vector<std::uint8_t> before = saved(a);
  Heap b = restored(before);
  ASSERT_TRUE(b.check_invariants());
  EXPECT_EQ(saved(b), before);
  for (Key k = 100; k < 140; ++k) {
    const double priority = draw_priority(rng);
    a.push(k, priority);
    b.push(k, priority);
  }
  ASSERT_TRUE(a.check_invariants());
  EXPECT_LT(a.next_sequence(), kSequenceWrap);

  // The renumbered heap round-trips too, and pops in the same order.
  const std::vector<std::uint8_t> after = saved(a);
  EXPECT_EQ(saved(b), after);
  Heap c = restored(after);
  EXPECT_EQ(saved(c), after);
  while (!a.empty()) {
    const auto want = a.pop();
    EXPECT_EQ(b.pop().key, want.key);
    EXPECT_EQ(c.pop().key, want.key);
  }
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(c.empty());
}

TEST(IndexedHeapDifferential, RestoresSequencesBeyond32Bits) {
  // A heap saved with 64-bit sequences (a stream past 2^32 insertions):
  // restore renumbers them in order, so the pop order is unchanged.
  const std::vector<std::pair<double, std::uint64_t>> saved_entries = {
      {1.0, kSequenceWrap + 5}, {1.0, 3}, {2.0, kSequenceWrap * 3},
      {1.0, kSequenceWrap}, {0.5, kSequenceWrap + 9}};
  util::StateWriter w;
  w.put_u64(saved_entries.size());
  for (std::uint32_t i = 0; i < saved_entries.size(); ++i) {
    w.put_u64(id_table().at(i).id);
    w.put_double(saved_entries[i].first);
    w.put_u64(saved_entries[i].second);
  }
  w.put_u64(kSequenceWrap * 3 + 1);
  const std::vector<std::uint8_t> bytes = w.take();

  Heap h = restored(bytes);
  ASSERT_TRUE(h.check_invariants());
  EXPECT_EQ(h.next_sequence(), saved_entries.size());
  h.push(9, 1.0);  // after every restored 1.0 entry
  for (const Key key : {4u, 1u, 3u, 0u, 9u, 2u}) {
    EXPECT_EQ(h.pop().key, key);
  }
}

TEST(IndexedHeap, DenseUniverseBound) {
  // Keys are slots below 2^32 - 1; that value marks absent positions.
  Heap h;
  EXPECT_THROW(h.push(std::numeric_limits<Key>::max(), 1.0),
               std::invalid_argument);
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.check_invariants());
}

}  // namespace
}  // namespace webcache::cache
