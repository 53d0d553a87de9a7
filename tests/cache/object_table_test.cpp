#include "cache/object_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace webcache::cache {
namespace {

CacheObject object(ObjectId id, std::uint64_t size = 1) {
  CacheObject obj;
  obj.id = id;
  obj.size = size;
  return obj;
}

std::vector<ObjectId> resident_ids(const ObjectTable& table) {
  std::vector<ObjectId> ids;
  table.for_each([&](const CacheObject& obj) { ids.push_back(obj.id); });
  return ids;
}

TEST(ObjectTable, FreedSlotsAreReusedLifo) {
  ObjectTable table;
  for (ObjectId id = 10; id < 14; ++id) {
    EXPECT_EQ(table.insert(object(id)).slot, id - 10);
  }
  table.erase(1);
  table.erase(3);
  table.erase(0);
  EXPECT_EQ(table.insert(object(20)).slot, 0u);  // the last one freed
  EXPECT_EQ(table.insert(object(21)).slot, 3u);
  EXPECT_EQ(table.insert(object(22)).slot, 1u);
  EXPECT_EQ(table.insert(object(23)).slot, 4u);  // free list empty: append
  EXPECT_EQ(table.slot_count(), 5u);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.find(21)->slot, 3u);
}

TEST(ObjectTable, EraseMovesNoOtherObject) {
  ObjectTable table;
  for (ObjectId id = 0; id < 8; ++id) table.insert(object(id, 100 + id));
  const CacheObject* last = table.find(7);
  table.erase(table.find(2)->slot);
  EXPECT_EQ(table.find(7), last);
  EXPECT_EQ(last->size, 107u);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_FALSE(table.contains(2));
}

TEST(ObjectTable, ForEachSkipsFreeSlots) {
  ObjectTable table;
  for (ObjectId id = 0; id < 6; ++id) table.insert(object(id));
  table.erase(table.find(1)->slot);
  table.erase(table.find(4)->slot);
  EXPECT_EQ(resident_ids(table), (std::vector<ObjectId>{0, 2, 3, 5}));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.slot_count(), 6u);
}

TEST(ObjectTable, RejectsDuplicatesAndFreeSlots) {
  ObjectTable table;
  table.insert(object(5));
  EXPECT_THROW(table.insert(object(5)), std::logic_error);
  EXPECT_THROW(table.erase(1), std::logic_error);  // never handed out
  table.erase(0);
  EXPECT_THROW(table.erase(0), std::logic_error);  // already free
  table.reserve_dense(8);
  EXPECT_THROW(table.insert(object(8)), std::logic_error);  // outside
  EXPECT_EQ(table.size(), 0u);
}

TEST(ObjectTable, FlatAndMapIndexModesAssignTheSameSlots) {
  ObjectTable flat;
  ObjectTable map;
  flat.reserve_dense(64);
  util::Rng rng(5);
  for (int step = 0; step < 5000; ++step) {
    const ObjectId id = rng.below(64);
    CacheObject* a = flat.find(id);
    CacheObject* b = map.find(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
    if (a == nullptr) {
      ASSERT_EQ(flat.insert(object(id)).slot, map.insert(object(id)).slot)
          << "step " << step;
    } else {
      ASSERT_EQ(a->slot, b->slot) << "step " << step;
      if (rng.chance(0.7)) {
        flat.erase(a->slot);
        map.erase(b->slot);
      }
    }
  }
  EXPECT_EQ(flat.slot_count(), map.slot_count());
  EXPECT_EQ(resident_ids(flat), resident_ids(map));
}

TEST(ObjectTable, ReservedSlabNeverMoves) {
  // The first dense reservation reserves the slab for the whole universe,
  // so filling the table to it, with erasures and reuse along the way,
  // never moves a resident object.
  constexpr ObjectId kUniverse = 500;
  ObjectTable table;
  table.reserve_dense(kUniverse);
  std::vector<const CacheObject*> where(kUniverse, nullptr);  // by slot
  util::Rng rng(27);
  const auto expect_unmoved = [&](int step) {
    for (std::uint32_t s = 0; s < table.slot_count(); ++s) {
      if (where[s] != nullptr) {
        ASSERT_EQ(&table.at(s), where[s]) << "slot " << s << " step " << step;
      }
    }
  };
  for (int step = 0; table.size() < kUniverse; ++step) {
    const ObjectId id = rng.below(kUniverse);
    if (const CacheObject* found = table.find(id)) {
      if (step < 2000 && rng.chance(0.2)) {  // then fill up
        where[found->slot] = nullptr;
        table.erase(found->slot);
      }
      continue;
    }
    const CacheObject& stored = table.insert(object(id));
    where[stored.slot] = &stored;
    expect_unmoved(step);
  }
  EXPECT_EQ(table.slot_count(), kUniverse);
}

TEST(ObjectTable, ClearKeepsTheUniverse) {
  ObjectTable table;
  table.reserve_dense(16);
  for (ObjectId id = 0; id < 4; ++id) table.insert(object(id));
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.slot_count(), 0u);
  EXPECT_EQ(table.find(3), nullptr);
  // Still dense over 16 ids: a live extension is legal, a shrink is not,
  // and ids inside the universe insert without a new reservation.
  EXPECT_EQ(table.insert(object(15)).slot, 0u);
  EXPECT_THROW(table.reserve_dense(8), std::logic_error);
  EXPECT_NO_THROW(table.reserve_dense(32));
  EXPECT_EQ(table.insert(object(31)).slot, 1u);
}

}  // namespace
}  // namespace webcache::cache
