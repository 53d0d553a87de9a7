// Pins the recency-list policies (list_policy.hpp) across builds: their
// replay counters on the golden trace, recorded from the separate classes
// the template replaced, and the bytes of their checkpoints. The
// golden TSV and the oracle cover LRU, LRU-THOLD and the lazy variants at
// one setting each; these cells hold FIFO and every promotion rule at a
// second parameter and two capacities.
#include "cache/list_policy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_trace.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {
namespace {

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

trace::Trace golden_trace() {
  return trace::read_binary_trace_file(std::string(WEBCACHE_TEST_DATA_DIR) +
                                       "/golden_dfn.wct");
}

struct PinnedCounters {
  const char* policy;
  std::uint64_t capacity;
  std::uint64_t hits;
  std::uint64_t hit_bytes;
  std::uint64_t evictions;
};

// DELAY-LRU:k=4 decides exactly like LRU at these capacities; k=64 does
// not, so a rule that degenerated to LRU would still show.
TEST(ListPolicy, DecisionsMatchRecordedCounters) {
  const trace::Trace trace = golden_trace();
  for (const PinnedCounters& p : {
           PinnedCounters{"LRU", 1 << 20, 1184, 6545104, 5234},
           PinnedCounters{"LRU", 8 << 20, 2509, 20654637, 3588},
           PinnedCounters{"LRU-THOLD(16384)", 1 << 20, 1824, 7719531, 3579},
           PinnedCounters{"LRU-THOLD(16384)", 8 << 20, 3085, 13515309, 593},
           PinnedCounters{"FIFO", 1 << 20, 1037, 5919691, 5402},
           PinnedCounters{"FIFO", 8 << 20, 2268, 18372939, 3835},
           PinnedCounters{"PROB-LRU:p=0.1,seed=3", 1 << 20, 1052, 6000770,
                          5381},
           PinnedCounters{"PROB-LRU:p=0.1,seed=3", 8 << 20, 2314, 18749062,
                          3787},
           PinnedCounters{"DELAY-LRU:k=4", 1 << 20, 1184, 6545104, 5234},
           PinnedCounters{"DELAY-LRU:k=4", 8 << 20, 2509, 20654637, 3588},
           PinnedCounters{"DELAY-LRU:k=64", 1 << 20, 1142, 6347863, 5278},
           PinnedCounters{"DELAY-LRU:k=64", 8 << 20, 2505, 20630366, 3592},
           PinnedCounters{"BATCH-LRU:batch=8", 1 << 20, 1168, 6476257, 5251},
           PinnedCounters{"BATCH-LRU:batch=8", 8 << 20, 2510, 20672974, 3587},
           PinnedCounters{"CLOCK", 1 << 20, 1250, 6917362, 5164},
           PinnedCounters{"CLOCK", 8 << 20, 2583, 21279894, 3536},
           PinnedCounters{"DELAY-CLOCK:k=3", 1 << 20, 1325, 7232491, 5086},
           PinnedCounters{"DELAY-CLOCK:k=3", 8 << 20, 2654, 21635323,
                          3450},
           PinnedCounters{"DELAY-CLOCK:k=8", 1 << 20, 1339, 7314996, 5071},
           PinnedCounters{"DELAY-CLOCK:k=8", 8 << 20, 2650, 21561252,
                          3453},
       }) {
    const sim::SimResult r = sim::simulate(trace, p.capacity,
                                           policy_spec_from_name(p.policy));
    const std::string cell =
        std::string(p.policy) + " at " + std::to_string(p.capacity >> 20) +
        " MiB";
    EXPECT_EQ(r.overall.hits, p.hits) << cell;
    EXPECT_EQ(r.overall.hit_bytes, p.hit_bytes) << cell;
    EXPECT_EQ(r.evictions, p.evictions) << cell;
  }
}

TEST(ListPolicy, LimitNamesTheRuleAndAdmissionFollowsIt) {
  const LruThresholdPolicy lru_thold(AdmissionLimit{4096});
  EXPECT_EQ(lru_thold.name(), "LRU-THOLD(4096)");
  EXPECT_EQ(lru_thold.admission_limit(), 4096u);
  EXPECT_EQ(LruPolicy().admission_limit(), 0u);
  EXPECT_EQ(FifoPolicy().name(), "FIFO");
}

struct PinnedState {
  const char* policy;
  std::size_t bytes;
  std::uint32_t crc;
};

// The checkpoint bytes of a Cache (its accounting, its resident objects,
// then the list MRU to LRU and the rule's state) after the first 4,000
// requests of the golden trace at a 64 KB capacity, pinned across builds
// like CheckpointFormat.GreedyDualPolicyBytesAreStable. LRU, LRU-THOLD and
// BATCH-LRU write what the version-3 classes wrote; FIFO, PROB-LRU and
// DELAY-LRU moved to the one list layout with version 4, and CLOCK and
// DELAY-CLOCK with version 5 (their counters follow the ids, where the
// version-4 class wrote each id with its counter).
TEST(CheckpointFormat, ListPolicyBytesAreStable) {
  const trace::Trace trace = golden_trace();
  ASSERT_GE(trace.requests.size(), 4000u);
  for (const PinnedState& pinned : {
           PinnedState{"LRU", 934, 2748936988u},
           PinnedState{"LRU-THOLD(16384)", 934, 3118657474u},
           PinnedState{"FIFO", 934, 2304189290u},
           PinnedState{"PROB-LRU:p=0.1,seed=3", 7307, 2053072414u},
           PinnedState{"DELAY-LRU:k=4", 1046, 4195933226u},
           PinnedState{"BATCH-LRU:batch=8", 950, 758777169u},
           PinnedState{"CLOCK", 990, 3873789271u},
           PinnedState{"DELAY-CLOCK:k=3", 990, 3911632074u},
       }) {
    Cache cache(64 << 10, make_policy(policy_spec_from_name(pinned.policy)));
    for (std::size_t i = 0; i < 4000; ++i) {
      const trace::Request& r = trace.requests[i];
      cache.access(r.document, r.document_size, r.doc_class);
    }
    util::StateWriter w;
    cache.save_state(w);
    const auto bytes = w.bytes();
    EXPECT_EQ(bytes.size(), pinned.bytes) << pinned.policy;
    EXPECT_EQ(util::crc32(bytes.data(), bytes.size()), pinned.crc)
        << pinned.policy;
  }
}

// The hand's walk ends within k revolutions only while every counter is at
// most k, so a checkpoint that holds a larger one is refused by name.
TEST(ListPolicy, ClockRestoreRefusesACounterAboveItsCap) {
  Cache cache(4, make_policy("CLOCK"));
  for (const ObjectId id : {1, 2, 3}) {
    cache.access(id, 1, trace::DocumentClass::kOther);
  }
  util::StateWriter w;
  cache.save_state(w);
  std::vector<std::uint8_t> bytes = w.take();
  const auto restore = [&] {
    Cache restored(4, make_policy("CLOCK"));
    util::StateReader r(bytes.data(), bytes.size(), "cache");
    restored.restore_state(r);
  };
  EXPECT_NO_THROW(restore());
  // The policy's state comes last; its last field is the counter of the
  // object at the back of the list, a little-endian u32.
  bytes[bytes.size() - 4] = 2;
  try {
    restore();
    FAIL() << "a CLOCK counter of 2 was restored";
  } catch (const util::StateError& e) {
    EXPECT_NE(std::string(e.what()).find("CLOCK counter above its cap"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace webcache::cache
