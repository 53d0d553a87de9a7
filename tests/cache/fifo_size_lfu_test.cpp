#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "cache/greedy_dual.hpp"
#include "cache/list_policy.hpp"
#include "policy_test_util.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_trace.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::access_sized;
using testutil::unit_cache;

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

struct PinnedRun {
  std::uint64_t capacity_bytes;
  std::uint64_t hits;
  std::uint64_t hit_bytes;
  std::uint64_t evictions;
};

// Replays golden_dfn.wct through sim::simulate with default options and
// compares the overall counters with values pinned across builds: any
// change to a single eviction decision moves them.
void expect_golden_runs(const char* policy,
                        std::initializer_list<PinnedRun> pinned) {
  const trace::Trace trace = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  for (const PinnedRun& run : pinned) {
    const sim::SimResult r = sim::simulate(trace, run.capacity_bytes,
                                           policy_spec_from_name(policy));
    EXPECT_EQ(r.overall.hits, run.hits)
        << policy << " @ " << run.capacity_bytes;
    EXPECT_EQ(r.overall.hit_bytes, run.hit_bytes)
        << policy << " @ " << run.capacity_bytes;
    EXPECT_EQ(r.evictions, run.evictions)
        << policy << " @ " << run.capacity_bytes;
  }
}

// --------------------------------------------------------------- FIFO

TEST(Fifo, EvictsInInsertionOrderRegardlessOfHits) {
  Cache cache = unit_cache(std::make_unique<FifoPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  EXPECT_TRUE(access(cache, 1));  // hit must NOT refresh position
  access(cache, 4);               // evicts 1 anyway
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Fifo, EraseOutOfOrderThenEvict) {
  Cache cache = unit_cache(std::make_unique<FifoPolicy>(), 3);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);
  cache.erase(2);  // leaves the middle of the queue
  access(cache, 4);
  access(cache, 5);  // must evict 1 (oldest)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(5));
}

TEST(Fifo, ReinsertAfterEviction) {
  Cache cache = unit_cache(std::make_unique<FifoPolicy>(), 2);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);  // evicts 1
  access(cache, 1);  // reinserted, now newest
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
}

TEST(Fifo, ProtocolViolations) {
  FifoPolicy policy;
  CacheObject obj;
  obj.id = 1;
  obj.slot = 1;
  policy.on_insert(obj);
  EXPECT_THROW(policy.on_insert(obj), std::logic_error);
  CacheObject absent;
  absent.id = 99;
  absent.slot = 99;
  EXPECT_THROW(policy.on_erase(absent), std::logic_error);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_THROW(policy.evict(0), std::logic_error);
}

// --------------------------------------------------------------- SIZE

TEST(Size, EvictsLargestFirst) {
  Cache cache(100, std::make_unique<SizePolicy>());
  access_sized(cache, 1, 10);
  access_sized(cache, 2, 50);
  access_sized(cache, 3, 30);
  access_sized(cache, 4, 20);  // needs 10 free: evicts 2 (largest)
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Size, EvictsRepeatedlyLargest) {
  Cache cache(130, std::make_unique<SizePolicy>());
  access_sized(cache, 1, 40);
  access_sized(cache, 2, 35);
  access_sized(cache, 3, 25);
  access_sized(cache, 4, 90);  // evicts 1 then 2 (40 + 35 freed)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Size, EqualSizesBreakFifo) {
  Cache cache(3, std::make_unique<SizePolicy>());
  access_sized(cache, 1, 1);
  access_sized(cache, 2, 1);
  access_sized(cache, 3, 1);
  access_sized(cache, 4, 1);  // all equal: evicts earliest-inserted (1)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Size, HitsDoNotChangeOrder) {
  Cache cache(100, std::make_unique<SizePolicy>());
  access_sized(cache, 1, 60);
  access_sized(cache, 2, 30);
  access_sized(cache, 1, 60);  // hit on the large object
  access_sized(cache, 3, 40);  // still evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Size, ZeroSizeDocumentCheckpointsANegativeZero) {
  // SIZE's priority is -size, so a size-0 document (e.g. a 304 body) sits
  // in the heap at -0.0, and the checkpoint writes the double's bits: the
  // little-endian sign bit alone, which no other field here produces.
  Cache cache(100, std::make_unique<SizePolicy>());
  access_sized(cache, 1, 0);
  access_sized(cache, 2, 10);
  util::StateWriter w;
  cache.save_state(w);
  const auto bytes = w.bytes();
  const std::array<std::uint8_t, 8> negative_zero = {0, 0, 0, 0,
                                                     0, 0, 0, 0x80};
  EXPECT_NE(std::search(bytes.begin(), bytes.end(), negative_zero.begin(),
                        negative_zero.end()),
            bytes.end());
}

TEST(Size, GoldenTraceDecisionsArePinned) {
  expect_golden_runs("SIZE", {{1 << 20, 1902, 5605362, 3858},
                              {8 << 20, 3153, 16511440, 1433}});
}

// ---------------------------------------------------------------- LFU

TEST(Lfu, EvictsLeastFrequentlyUsed) {
  Cache cache = unit_cache(std::make_unique<LfuPolicy>(), 3);
  access(cache, 1);
  access(cache, 1);
  access(cache, 2);
  access(cache, 2);
  access(cache, 3);  // count 1
  access(cache, 4);  // evicts 3
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Lfu, TiesBreakFifo) {
  Cache cache = unit_cache(std::make_unique<LfuPolicy>(), 2);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);  // 1 and 2 both count 1 -> evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(Lfu, CachePollution) {
  // The defect that motivates LFU-DA: documents hot in the past never age
  // out, so a new working set cannot establish itself.
  Cache cache = unit_cache(std::make_unique<LfuPolicy>(), 2);
  for (int i = 0; i < 100; ++i) {
    access(cache, 1);
    access(cache, 2);
  }
  // A new phase with documents 3 and 4: after the first insertion displaces
  // one incumbent, the newcomers (count 1) only evict each other and never
  // both fit, while the remaining high-count incumbent squats forever.
  int new_phase_hits = 0;
  for (int i = 0; i < 50; ++i) {
    if (access(cache, 3)) ++new_phase_hits;
    if (access(cache, 4)) ++new_phase_hits;
  }
  EXPECT_EQ(new_phase_hits, 0);
  EXPECT_TRUE(cache.contains(2));
}

TEST(Lfu, GoldenTraceDecisionsArePinned) {
  expect_golden_runs("LFU", {{1 << 20, 1671, 9150305, 4703},
                             {8 << 20, 2753, 22604928, 3183}});
}

}  // namespace
}  // namespace webcache::cache
