#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/factory.hpp"
#include "cache/list_policy.hpp"
#include "cache/lru_variants.hpp"
#include "policy_test_util.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

using testutil::access_sized;

// ------------------------------------------------------- LRU-Threshold

TEST(LruThreshold, RejectsZeroThreshold) {
  EXPECT_THROW(LruThresholdPolicy(AdmissionLimit{0}), std::invalid_argument);
}

TEST(LruThreshold, NameCarriesThreshold) {
  EXPECT_EQ(LruThresholdPolicy(AdmissionLimit{1024}).name(), "LRU-THOLD(1024)");
}

TEST(LruThreshold, EvictionOrderIsLru) {
  Cache cache(3, std::make_unique<LruThresholdPolicy>(AdmissionLimit{100}));
  access_sized(cache, 1, 1);
  access_sized(cache, 2, 1);
  access_sized(cache, 1, 1);  // refresh 1
  access_sized(cache, 3, 1);
  access_sized(cache, 4, 1);  // evicts 2 (LRU)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruThreshold, CacheAdmissionLimitBypassesLargeObjects) {
  // The policy's threshold is the cache's admission limit; no setup call.
  Cache cache(1000, std::make_unique<LruThresholdPolicy>(AdmissionLimit{100}));
  EXPECT_EQ(access_sized(cache, 1, 101).kind, Cache::AccessKind::kBypass);
  EXPECT_EQ(access_sized(cache, 2, 100).kind, Cache::AccessKind::kMiss);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(1));
}

TEST(LruThreshold, SimulatorInstallsAdmissionLimit) {
  // Through the PolicySpec path the simulator must wire the threshold into
  // the cache: large documents never get cached, so re-requests to them
  // miss even with ample capacity.
  trace::Trace t;
  for (int i = 0; i < 10; ++i) {
    trace::Request r;
    r.document = 1;
    r.document_size = 5000;
    r.transfer_size = 5000;
    t.requests.push_back(r);
    r.document = 2;
    r.document_size = 100;
    r.transfer_size = 100;
    t.requests.push_back(r);
  }
  PolicySpec spec;
  spec.kind = PolicyKind::kLruThreshold;
  spec.admission_threshold_bytes = 1000;
  sim::SimulatorOptions opts;
  opts.warmup_fraction = 0.0;
  const sim::SimResult r = sim::simulate(t, 1 << 20, spec, opts);
  // Doc 2 (small) hits 9 times, doc 1 (large) never.
  EXPECT_EQ(r.overall.hits, 9u);
  EXPECT_EQ(r.bypasses, 10u);
}

TEST(LruThreshold, FactoryParsesName) {
  const PolicySpec spec = policy_spec_from_name("LRU-THOLD(524288)");
  EXPECT_EQ(spec.kind, PolicyKind::kLruThreshold);
  EXPECT_EQ(spec.admission_threshold_bytes, 524288u);
  EXPECT_THROW(policy_spec_from_name("LRU-THOLD()"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("LRU-THOLD(-5)"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("LRU-THOLD(abc)"), std::invalid_argument);
}

// ------------------------------------------------------------- LRU-MIN

TEST(LruMin, PrefersEvictingLargeDocuments) {
  Cache cache(100, std::make_unique<LruMinPolicy>());
  access_sized(cache, 1, 60);  // large, oldest
  access_sized(cache, 2, 10);
  access_sized(cache, 3, 30);
  // Incoming 40 bytes: LRU-MIN evicts the LRU doc with size >= 40 -> doc 1.
  access_sized(cache, 4, 40);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruMin, HalvesThresholdWhenNoLargeDocument) {
  Cache cache(120, std::make_unique<LruMinPolicy>());
  access_sized(cache, 1, 30);
  access_sized(cache, 2, 35);
  access_sized(cache, 3, 35);
  // Incoming 80: no doc >= 80; >= 40 none either; >= 20 -> LRU match is 1.
  access_sized(cache, 4, 80);
  EXPECT_FALSE(cache.contains(1));
  // 1 freed 30, still 70 + 80 > 120: next pick (>= 20) is doc 2.
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruMin, RecencyStillMattersWithinSizeClass) {
  Cache cache(100, std::make_unique<LruMinPolicy>());
  access_sized(cache, 1, 40);
  access_sized(cache, 2, 40);
  access_sized(cache, 1, 40);  // 1 now MRU
  access_sized(cache, 3, 40);  // needs 20: evicts LRU doc >= 20 -> doc 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruMin, DegeneratesToLruForUniformSizes) {
  Cache min_cache(5, std::make_unique<LruMinPolicy>());
  Cache lru_cache(5, make_policy("LRU"));
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const ObjectId id = rng.below(20);
    const auto a = min_cache.access(id, 1, trace::DocumentClass::kOther);
    const auto b = lru_cache.access(id, 1, trace::DocumentClass::kOther);
    ASSERT_EQ(a.kind, b.kind) << "step " << i;
  }
}

TEST(LruMin, FactoryName) {
  EXPECT_EQ(make_policy("LRU-MIN")->name(), "LRU-MIN");
}

TEST(LruMin, ProtocolViolations) {
  LruMinPolicy policy;
  CacheObject obj;
  obj.id = 1;
  obj.slot = 1;
  obj.size = 10;
  policy.on_insert(obj);
  EXPECT_THROW(policy.on_insert(obj), std::logic_error);
  CacheObject absent;
  absent.id = 2;
  absent.slot = 2;
  EXPECT_THROW(policy.on_hit(absent), std::logic_error);
  EXPECT_THROW(policy.on_erase(absent), std::logic_error);
  EXPECT_EQ(policy.evict(0), 1u);
  EXPECT_THROW(policy.evict(0), std::logic_error);
}

}  // namespace
}  // namespace webcache::cache
