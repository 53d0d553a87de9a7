// Policies key their state by object-table slot, and the slot an object
// takes depends on which slots happen to be free. A policy whose decisions
// leaked slot numbers (a heap tie broken on the slot instead of the
// insertion sequence, a victim picked by slot order) would replay a trace
// differently under another slot assignment. Each test replays a trace on a
// fresh cache and on one whose free list was first filled with scratch
// objects and freed in a shuffled order, so the trace's objects land in
// other slots, and requires identical outcomes and removal order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/greedy_dual.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

const std::vector<std::string>& factory_policy_names() {
  static const std::vector<std::string> names = {
      "LRU",          "FIFO",          "SIZE",
      "LFU",          "LFU-DA",        "GDS(1)",
      "GDS(packet)",  "GDSF(1)",       "GD*(1)",
      "GD*(packet)",  "LRU-MIN",       "LRU-THOLD(16384)",
      "LRU-2",        "GD*C(1)",       "RANDOM",
      "CLOCK",        "DELAY-CLOCK:k=3", "PROB-LRU:p=0.25",
      "DELAY-LRU:k=8", "BATCH-LRU:batch=16"};
  return names;
}

const std::vector<trace::Trace>& traces() {
  static const std::vector<trace::Trace> out = [] {
    std::vector<trace::Trace> t;
    synth::GeneratorOptions gen;
    gen.seed = 404;
    t.push_back(synth::TraceGenerator(
                    synth::WorkloadProfile::DFN().scaled(0.001), gen)
                    .generate());
    gen.seed = 505;
    t.push_back(synth::TraceGenerator(
                    synth::WorkloadProfile::RTP().scaled(0.0012), gen)
                    .generate());
    return t;
  }();
  return out;
}

// Scratch ids lie far above any trace id, so they never collide.
constexpr ObjectId kScratchBase = ObjectId{1} << 62;
constexpr std::uint64_t kScratchObjects = 700;

// Fills the table with zero-byte scratch objects (put() does not advance
// the request clock) and erases them in a shuffled order, so the free list
// hands out slots in that order, far from the fresh cache's 0, 1, 2, ...
void scramble_free_slots(Cache& cache) {
  for (std::uint64_t i = 0; i < kScratchObjects; ++i) {
    ASSERT_TRUE(cache.put(kScratchBase + i, 0, trace::DocumentClass::kOther));
  }
  std::vector<ObjectId> order;
  for (std::uint64_t i = 0; i < kScratchObjects; ++i) {
    order.push_back(kScratchBase + i);
  }
  util::Rng rng(9);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (const ObjectId id : order) cache.erase(id);
  ASSERT_EQ(cache.object_count(), 0u);
}

struct Removals final : RemovalListener {
  std::vector<std::pair<ObjectId, RemovalCause>> seen;
  void on_removal(const CacheObject& obj, RemovalCause cause) override {
    seen.emplace_back(obj.id, cause);
  }
};

// Replays `trace` through both caches (a changed transfer size forces a
// miss, so invalidations run too) and compares every outcome and removal.
void expect_slot_independent(const trace::Trace& trace, Cache& fresh,
                             Cache& scrambled, const std::string& label) {
  Removals fresh_removals;
  Removals scrambled_removals;
  fresh.set_removal_listener(&fresh_removals);
  scrambled.set_removal_listener(&scrambled_removals);
  std::map<trace::DocumentId, std::uint64_t> last_size;
  bool slots_differ = false;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const trace::Request& r = trace.requests[i];
    const auto [last, first] =
        last_size.try_emplace(r.document, r.transfer_size);
    const bool changed = !first && last->second != r.transfer_size;
    last->second = r.transfer_size;
    const AccessOutcome a =
        fresh.access(r.document, r.transfer_size, r.doc_class, changed);
    const AccessOutcome b =
        scrambled.access(r.document, r.transfer_size, r.doc_class, changed);
    ASSERT_TRUE(a.kind == b.kind && a.evictions == b.evictions &&
                a.was_resident == b.was_resident)
        << label << ": request " << i << " diverges";
    const CacheObject* fa = fresh.find(r.document);
    const CacheObject* fb = scrambled.find(r.document);
    if (fa != nullptr && fb != nullptr && fa->slot != fb->slot) {
      slots_differ = true;
    }
  }
  EXPECT_TRUE(slots_differ) << label << ": the scramble changed no slot";
  EXPECT_GT(fresh.eviction_count(), 0u) << label;
  EXPECT_TRUE(fresh_removals.seen == scrambled_removals.seen)
      << label << ": removal order differs";
  fresh.set_removal_listener(nullptr);
  scrambled.set_removal_listener(nullptr);
}

class SlotIndependence : public testing::TestWithParam<std::string> {};

TEST_P(SlotIndependence, SameOutcomesAndEvictionOrderUnderScrambledSlots) {
  const PolicySpec spec = policy_spec_from_name(GetParam());
  for (std::size_t t = 0; t < traces().size(); ++t) {
    const trace::Trace& trace = traces()[t];
    const std::uint64_t capacity = trace.overall_size_bytes() / 20;
    Cache fresh(capacity, make_policy(spec));
    Cache scrambled(capacity, make_policy(spec));
    scramble_free_slots(scrambled);
    expect_slot_independent(trace, fresh, scrambled,
                            GetParam() + " trace " + std::to_string(t));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SlotIndependence,
                         testing::ValuesIn(factory_policy_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// OPT is built from the trace, so the factory cannot make it.
TEST(SlotIndependenceOpt, SameOutcomesAndEvictionOrderUnderScrambledSlots) {
  for (std::size_t t = 0; t < traces().size(); ++t) {
    const trace::Trace& trace = traces()[t];
    const std::uint64_t capacity = trace.overall_size_bytes() / 20;
    const trace::DenseTrace ids = trace::densify(trace);
    Cache fresh(capacity, std::make_unique<OptPolicy>(ids));
    Cache scrambled(capacity, std::make_unique<OptPolicy>(ids));
    scramble_free_slots(scrambled);
    expect_slot_independent(trace, fresh, scrambled,
                            "OPT trace " + std::to_string(t));
  }
}

}  // namespace
}  // namespace webcache::cache
