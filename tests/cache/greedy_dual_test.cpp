// The GreedyDual mechanics that LFU-DA, GDS, GDSF, GD* and GD*C share —
// one heap over H(p) = L + value(p), eviction of the minimum, L raised to
// the victim's H — checked once over all five, and the checkpoint bytes
// those policies write pinned across builds.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/object_table.hpp"
#include "trace/binary_trace.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {
namespace {

struct Scheme {
  std::string policy;
  /// value(p) of a document of 4 bytes referenced once: the priority it
  /// enters with at L = 0.
  double value;
};

void PrintTo(const Scheme& scheme, std::ostream* os) { *os << scheme.policy; }

constexpr double kPacketCostOf4 = 2.0 + 4.0 / 536.0;

class GreedyDual : public testing::TestWithParam<Scheme> {
 protected:
  std::unique_ptr<ReplacementPolicy> make() const {
    return make_policy(policy_spec_from_name(GetParam().policy));
  }
};

double inflation(const ReplacementPolicy& policy) {
  return policy.probe().aging.value();
}

CacheObject object(std::uint32_t slot, std::uint64_t size,
                   std::uint64_t references) {
  CacheObject obj;
  obj.id = slot;
  obj.slot = slot;
  obj.size = size;
  obj.doc_class = trace::kAllDocumentClasses[slot % trace::kDocumentClassCount];
  obj.reference_count = references;
  obj.last_access = obj.previous_access = obj.insert_index = slot;
  return obj;
}

std::vector<std::uint8_t> state_of(const ReplacementPolicy& policy) {
  util::StateWriter w;
  policy.save_state(w, ObjectTable());
  return {w.bytes().begin(), w.bytes().end()};
}

TEST_P(GreedyDual, LStartsAtZeroAndBecomesTheVictimsPriority) {
  const auto policy = make();
  EXPECT_EQ(inflation(*policy), 0.0);
  policy->on_insert(object(0, 4, 1));
  EXPECT_EQ(policy->evict(0), 0u);
  const double first = inflation(*policy);
  EXPECT_DOUBLE_EQ(first, GetParam().value);

  // Later documents enter at L + value; the minimum goes and L becomes its
  // priority, which a fresh policy holding only that document reports as
  // its value.
  const std::vector<CacheObject> objects = {object(1, 100, 1), object(2, 7, 3),
                                            object(3, 4000, 2)};
  for (const CacheObject& obj : objects) policy->on_insert(obj);
  const std::uint32_t victim = policy->evict(0);
  ASSERT_TRUE(victim >= 1 && victim <= 3) << victim;
  const auto alone = make();
  alone->on_insert(objects[victim - 1]);
  alone->evict(0);
  EXPECT_EQ(inflation(*policy), first + inflation(*alone));
}

TEST_P(GreedyDual, LIsMonotoneUnderARandomWorkload) {
  // L tracks the priority of successive victims, which the heap guarantees
  // are minimal, so it only ever rises.
  Cache cache(5000, make());
  util::Rng rng(71);
  double last = 0.0;
  for (int step = 0; step < 20000; ++step) {
    const ObjectId id = rng.below(300);
    cache.access(id, 1 + rng.below(400),
                 trace::kAllDocumentClasses[id % trace::kDocumentClassCount]);
    ASSERT_GE(inflation(cache.policy()), last) << "step " << step;
    last = inflation(cache.policy());
  }
  EXPECT_GT(last, 0.0);
}

TEST_P(GreedyDual, EraseOfTheMinimumLeavesLAlone) {
  // GreedyDual raises L only when it evicts: an invalidation or
  // modification that removes the current minimum (on_erase) leaves L where
  // it was, while evicting that same document raises it.
  for (const bool evict : {false, true}) {
    // The twin receives the same inserts; its eviction names the minimum.
    const auto policy = make();
    const auto twin = make();
    std::vector<CacheObject> objects;
    for (std::uint32_t slot = 0; slot < 3; ++slot) {
      objects.push_back(object(slot, 100 * (slot + 1), slot + 1));
      policy->on_insert(objects.back());
      twin->on_insert(objects.back());
    }
    const std::uint32_t minimum = twin->evict(0);
    if (evict) {
      EXPECT_EQ(policy->evict(0), minimum);
      EXPECT_GT(inflation(*policy), 0.0);
    } else {
      policy->on_erase(objects[minimum]);
      EXPECT_EQ(inflation(*policy), 0.0);
    }
  }
}

TEST_P(GreedyDual, ClearResetsLAndTheEstimators) {
  // Hits feed the beta estimators (one for GD*, one per class for GD*C),
  // evictions raise L; after clear() the policy serializes exactly as a
  // fresh one does.
  const auto policy = make();
  std::vector<CacheObject> objects;
  for (std::uint32_t slot = 0; slot < 10; ++slot) {
    objects.push_back(object(slot, 10 + slot, 1));
    policy->on_insert(objects.back());
  }
  for (std::uint64_t clock = 10; clock < 3000; ++clock) {
    CacheObject& obj = objects[clock % objects.size()];
    obj.previous_access = obj.last_access;
    obj.last_access = clock;
    ++obj.reference_count;
    policy->on_hit(obj);
  }
  for (std::size_t i = 0; i < objects.size(); ++i) policy->evict(0);
  EXPECT_GT(inflation(*policy), 0.0);
  const std::vector<std::uint8_t> fresh = state_of(*make());
  EXPECT_NE(state_of(*policy), fresh);
  policy->clear();
  EXPECT_EQ(inflation(*policy), 0.0);
  EXPECT_EQ(policy->probe().beta, make()->probe().beta);
  EXPECT_EQ(state_of(*policy), fresh);
}

TEST_P(GreedyDual, ZeroSizeObjectGetsAFinitePriority) {
  // A 304 body has size 0; it counts as one byte, so c(p) / s(p) stays
  // finite and the document is evicted like any other.
  const auto policy = make();
  policy->on_insert(object(1, 0, 1));
  EXPECT_EQ(policy->evict(0), 1u);
  EXPECT_TRUE(std::isfinite(inflation(*policy)));
  EXPECT_GT(inflation(*policy), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    , GreedyDual,
    testing::Values(Scheme{"LFU-DA", 1.0}, Scheme{"GDS(1)", 0.25},
                    Scheme{"GDS(packet)", kPacketCostOf4 / 4.0},
                    Scheme{"GDSF(1)", 0.25},
                    Scheme{"GDSF(packet)", kPacketCostOf4 / 4.0},
                    Scheme{"GD*(1)", 0.25},
                    Scheme{"GD*(packet)", kPacketCostOf4 / 4.0},
                    Scheme{"GD*(1):beta=0.5", 0.0625},
                    Scheme{"GD*C(1)", 0.25},
                    Scheme{"GD*C(packet)", kPacketCostOf4 / 4.0}),
    [](const testing::TestParamInfo<Scheme>& info) {
      std::string name = info.param.policy;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

struct PinnedState {
  const char* policy;
  std::size_t bytes;
  std::uint32_t crc;
};

// The checkpoint bytes of a Cache (its accounting, its resident objects,
// then the policy's heap, L and estimator state; LFU, SIZE and LRU-2,
// which do not age, write no L, and LRU-2 writes what its stand-alone
// version-4 class wrote) after the first 4,000 requests of the golden trace
// at a 64 KB capacity, pinned across builds: any change to the WCKP layout
// or to a single eviction decision moves them. The round-trip suites
// compare bytes only within one build.
TEST(CheckpointFormat, GreedyDualPolicyBytesAreStable) {
  const trace::Trace trace = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  ASSERT_GE(trace.requests.size(), 4000u);
  for (const PinnedState& pinned : {
           PinnedState{"LFU-DA", 1174, 2466213657u},
           PinnedState{"GDS(1)", 2999, 1240466124u},
           PinnedState{"GDSF(packet)", 1466, 4060338226u},
           PinnedState{"GD*(1)", 3200, 3306277756u},
           PinnedState{"GD*(1):beta=0.5", 4353, 3264755222u},
           PinnedState{"GD*C(packet)", 1810, 3945319147u},
           PinnedState{"LFU", 1312, 3624805758u},
           PinnedState{"SIZE", 5619, 954968512u},
           PinnedState{"LRU-2", 87407, 2382940708u},
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

}  // namespace
}  // namespace webcache::cache
