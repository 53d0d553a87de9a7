#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "policy_test_util.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::cache {
namespace {

using testutil::access;
using testutil::unit_cache;

TEST(LruK, SingleAccessObjectsEvictedFirst) {
  Cache cache = unit_cache(std::make_unique<LruKPolicy>(), 3);
  access(cache, 1);
  access(cache, 1);  // 1 has two accesses
  access(cache, 2);  // one access
  access(cache, 3);  // one access
  access(cache, 4);  // must evict a one-timer, the colder one: 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(LruK, AmongOneTimersEvictsLeastRecent) {
  Cache cache = unit_cache(std::make_unique<LruKPolicy>(), 2);
  access(cache, 1);
  access(cache, 2);
  access(cache, 3);  // both 1 and 2 are one-timers; 1 is older
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruK, EvictsOldestPenultimateAccess) {
  // Clocks: 1@(1,2), 2@(3,4): penultimate(1)=1 < penultimate(2)=3.
  Cache cache = unit_cache(std::make_unique<LruKPolicy>(), 2);
  access(cache, 1);
  access(cache, 1);
  access(cache, 2);
  access(cache, 2);
  access(cache, 3);  // evicts 1
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(LruK, RecentSingleBeatsAncientPair) {
  // Unlike plain LFU, LRU-2 eventually ages out a pair referenced long ago:
  // its penultimate access stays ancient while the stream moves on. But a
  // one-timer always loses to any twice-referenced object, however old.
  Cache cache = unit_cache(std::make_unique<LruKPolicy>(), 2);
  access(cache, 1);
  access(cache, 1);        // pair at clocks (1,2)
  for (ObjectId id = 10; id < 30; ++id) {
    access(cache, id);     // parade of one-timers
  }
  // The pair survived the whole parade.
  EXPECT_TRUE(cache.contains(1));
}

TEST(LruK, ScanResistantUnlikeLru) {
  // Working set {1,2} accessed repeatedly, interleaved with a one-pass
  // scan. LRU-2 keeps the working set; LRU loses it to the scan.
  auto run = [](const char* policy) {
    Cache cache(4, make_policy(policy));
    std::uint64_t working_set_hits = 0;
    ObjectId scan_id = 1000;
    for (int round = 0; round < 50; ++round) {
      for (const ObjectId id : {1u, 2u}) {
        if (cache.access(id, 1, trace::DocumentClass::kOther).kind ==
            Cache::AccessKind::kHit) {
          ++working_set_hits;
        }
      }
      for (int s = 0; s < 4; ++s) {
        cache.access(scan_id++, 1, trace::DocumentClass::kOther);
      }
    }
    return working_set_hits;
  };
  EXPECT_GT(run("LRU-2"), run("LRU") + 50);
}

TEST(LruK, RejectsZeroHistoryLimit) {
  EXPECT_THROW(LruKPolicy(0), std::invalid_argument);
}

TEST(LruK, HistoryIsBounded) {
  auto policy = std::make_unique<LruKPolicy>(/*history_limit=*/8);
  LruKPolicy* raw = policy.get();
  Cache cache(2, std::move(policy));
  for (ObjectId id = 0; id < 500; ++id) access(cache, id);
  EXPECT_EQ(raw->value().history_limit(), 8u);
  EXPECT_LE(raw->value().history_size(), 8u);
  EXPECT_GT(raw->value().history_size(), 0u);
}

TEST(LruK, RetainedHistorySurvivesReinsertion) {
  // Evict a doc, re-access it: the retained record must lift it out of the
  // one-timer band immediately, so a fresh one-timer is evicted instead.
  Cache cache = unit_cache(std::make_unique<LruKPolicy>(), 2);
  access(cache, 1);  // clock 1
  access(cache, 2);  // clock 2
  access(cache, 3);  // clock 3: evicts 1 (oldest one-timer); history: 1@1
  access(cache, 1);  // clock 4: evicts 2; 1 re-enters with penultimate 1
  access(cache, 4);  // clock 5: must evict 3 (one-timer), not 1
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruK, ClearDropsHistory) {
  auto policy = std::make_unique<LruKPolicy>();
  LruKPolicy* raw = policy.get();
  {
    Cache cache(1, std::move(policy));
    access(cache, 1);
    access(cache, 2);  // evicts 1 -> history
    EXPECT_EQ(raw->value().history_size(), 1u);
    cache.reset();
    EXPECT_EQ(raw->value().history_size(), 0u);
  }
}

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

struct PinnedRun {
  std::uint64_t capacity;
  std::uint64_t hits;
  std::uint64_t hit_bytes;
  std::uint64_t evictions;
};

void expect_pinned(const trace::DenseTrace& trace, const PinnedRun& p,
                   const std::string& label,
                   std::unique_ptr<ReplacementPolicy> policy) {
  const std::string cell =
      label + " at " + std::to_string(p.capacity >> 20) + " MiB";
  Cache cache(p.capacity, std::move(policy));
  const sim::SimResult r = sim::simulate(trace, cache);
  EXPECT_EQ(r.overall.hits, p.hits) << cell;
  EXPECT_EQ(r.overall.hit_bytes, p.hit_bytes) << cell;
  EXPECT_EQ(r.evictions, p.evictions) << cell;
}

// Replays golden_dfn.wct with default options and compares the overall
// counters with values recorded from the stand-alone LRU-2 class the
// GreedyDual value replaced. The factory's LRU-2 retains 16,384 departed
// documents, more than these runs ever evict; a limit of 8 prunes on
// nearly every eviction, so there the FIFO bound decides.
TEST(LruK, GoldenTraceDecisionsArePinned) {
  const trace::DenseTrace trace = trace::read_dense_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  for (const PinnedRun& p : {PinnedRun{1 << 20, 1771, 10584843, 4611},
                             PinnedRun{8 << 20, 2778, 22219848, 3171}}) {
    expect_pinned(trace, p, "LRU-2", make_policy("LRU-2"));
  }
  for (const PinnedRun& p : {PinnedRun{1 << 20, 1682, 9662347, 4690},
                             PinnedRun{8 << 20, 2744, 22546027, 3257}}) {
    expect_pinned(trace, p, "LruKPolicy(8)", std::make_unique<LruKPolicy>(8));
  }
}

TEST(LruK, FactoryNameRoundTrip) {
  EXPECT_EQ(make_policy("LRU-2")->name(), "LRU-2");
  EXPECT_EQ(policy_spec_from_name("LRU-2").kind, PolicyKind::kLruK);
}

}  // namespace
}  // namespace webcache::cache
