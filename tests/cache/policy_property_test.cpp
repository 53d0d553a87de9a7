// Property tests run uniformly against every replacement policy: whatever
// the eviction order, the container invariants and the policy protocol must
// hold under randomized workloads.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/greedy_dual.hpp"
#include "sim/simulator.hpp"
#include "support/access_diff.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"
#include "util/rng.hpp"

namespace webcache::cache {
namespace {

const std::vector<std::string>& all_policy_names() {
  static const std::vector<std::string> names = {
      "LRU",          "FIFO",          "SIZE",
      "LFU",          "LFU-DA",        "GDS(1)",
      "GDS(packet)",  "GDS(latency)",  "GDSF(1)",
      "GDSF(packet)", "GD*(1)",        "GD*(packet)",
      "GD*(latency)", "LRU-MIN",       "LRU-THOLD(300)",
      "LRU-2",        "GD*C(1)",       "GD*C(packet)",
      "RANDOM",       "CLOCK",         "DELAY-CLOCK:k=3",
      "PROB-LRU:p=0.25", "DELAY-LRU:k=8", "BATCH-LRU:batch=16"};
  return names;
}

class PolicyPropertyTest : public testing::TestWithParam<std::string> {};

// Small synthetic traces with deliberately different request mixes for the
// dense/sparse differential: the paper's DFN profile, the RTP profile (very
// different class composition), and a one-timer-heavy DFN variant (flatter
// popularity curve => many documents referenced exactly once, the situation
// where eviction-order divergence between the two representations would
// surface first).
const std::vector<trace::Trace>& fuzz_traces() {
  static const std::vector<trace::Trace> traces = [] {
    std::vector<trace::Trace> out;

    synth::GeneratorOptions gen;
    gen.seed = 101;
    out.push_back(synth::TraceGenerator(
                      synth::WorkloadProfile::DFN().scaled(0.001), gen)
                      .generate());

    gen.seed = 202;
    out.push_back(synth::TraceGenerator(
                      synth::WorkloadProfile::RTP().scaled(0.0012), gen)
                      .generate());

    gen.seed = 303;
    synth::WorkloadProfile one_timer_heavy =
        synth::WorkloadProfile::DFN().scaled(0.001);
    for (const auto cls : trace::kAllDocumentClasses) {
      one_timer_heavy.of(cls).alpha = 1.1;
    }
    out.push_back(synth::TraceGenerator(one_timer_heavy, gen).generate());
    return out;
  }();
  return traces;
}

const std::vector<trace::DenseTrace>& fuzz_dense_traces() {
  static const std::vector<trace::DenseTrace> traces = [] {
    std::vector<trace::DenseTrace> out;
    for (const trace::Trace& t : fuzz_traces()) {
      out.push_back(trace::densify(t));
    }
    return out;
  }();
  return traces;
}

TEST_P(PolicyPropertyTest, RandomWorkloadKeepsInvariants) {
  Cache cache(10000, make_policy(GetParam()));
  util::Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const ObjectId id = rng.below(500);
    const std::uint64_t size = 1 + rng.below(400);
    const auto cls = static_cast<trace::DocumentClass>(rng.below(5));
    const bool force_miss = rng.chance(0.02);
    cache.access(id, size, cls, force_miss);
    ASSERT_LE(cache.used_bytes(), cache.capacity_bytes());
    if (step % 1000 == 0) {
      ASSERT_TRUE(cache.check_invariants());
    }
  }
  ASSERT_TRUE(cache.check_invariants());
}

TEST_P(PolicyPropertyTest, DeterministicReplay) {
  auto run = [&](std::uint64_t seed) {
    Cache cache(5000, make_policy(GetParam()));
    util::Rng rng(seed);
    std::uint64_t hits = 0;
    for (int step = 0; step < 10000; ++step) {
      const ObjectId id = rng.below(300);
      const std::uint64_t size = 1 + rng.below(200);
      if (cache.access(id, size, trace::DocumentClass::kOther).kind ==
          Cache::AccessKind::kHit) {
        ++hits;
      }
    }
    return std::pair(hits, cache.used_bytes());
  };
  EXPECT_EQ(run(7), run(7));
}

TEST_P(PolicyPropertyTest, SingleObjectWorkload) {
  Cache cache(100, make_policy(GetParam()));
  EXPECT_EQ(cache.access(1, 50, trace::DocumentClass::kHtml).kind,
            Cache::AccessKind::kMiss);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(cache.access(1, 50, trace::DocumentClass::kHtml).kind,
              Cache::AccessKind::kHit);
  }
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST_P(PolicyPropertyTest, FullChurnNeverUnderflows) {
  // Objects exactly the cache size force a full eviction every miss.
  Cache cache(64, make_policy(GetParam()));
  for (ObjectId id = 0; id < 200; ++id) {
    const auto outcome = cache.access(id, 64, trace::DocumentClass::kOther);
    ASSERT_EQ(outcome.kind, Cache::AccessKind::kMiss);
    ASSERT_EQ(cache.object_count(), 1u);
    ASSERT_EQ(cache.used_bytes(), 64u);
  }
  ASSERT_TRUE(cache.check_invariants());
}

TEST_P(PolicyPropertyTest, EraseDuringChurnIsSafe) {
  Cache cache(1000, make_policy(GetParam()));
  util::Rng rng(99);
  for (int step = 0; step < 5000; ++step) {
    const ObjectId id = rng.below(100);
    if (rng.chance(0.15)) {
      cache.erase(id);
    } else {
      cache.access(id, 1 + rng.below(100), trace::DocumentClass::kImage);
    }
  }
  ASSERT_TRUE(cache.check_invariants());
}

TEST_P(PolicyPropertyTest, HitRateGrowsWithCacheSize) {
  // The paper's log-like growth claim in its weakest form: more capacity
  // never hurts badly. We demand monotone non-decreasing hit counts along a
  // doubling ladder (allowing a tiny tolerance for non-stack policies,
  // which are not strictly inclusive).
  auto hits_at = [&](std::uint64_t capacity) {
    Cache cache(capacity, make_policy(GetParam()));
    util::Rng rng(5);
    std::uint64_t hits = 0;
    for (int step = 0; step < 30000; ++step) {
      // Zipf-ish: small ids much more likely.
      const ObjectId id = rng.below(1 + rng.below(400));
      const std::uint64_t size = 1 + (id * 37) % 256;
      if (cache.access(id, size, trace::DocumentClass::kOther).kind ==
          Cache::AccessKind::kHit) {
        ++hits;
      }
    }
    return hits;
  };
  const std::uint64_t h1 = hits_at(1 << 10);
  const std::uint64_t h2 = hits_at(1 << 13);
  const std::uint64_t h3 = hits_at(1 << 16);
  EXPECT_GE(static_cast<double>(h2), static_cast<double>(h1) * 0.95);
  EXPECT_GE(static_cast<double>(h3), static_cast<double>(h2) * 0.95);
  EXPECT_GT(h3, h1);  // strictly better across a 64x capacity range
}

TEST_P(PolicyPropertyTest, DenseReplayMatchesSparseOnFuzzedTraces) {
  // Differential fuzzing of the cache's two index modes: for every factory
  // policy and every synthetic trace mix, a Cache keyed by the raw 64-bit
  // ids (hash-map mode) and one on the reserved dense universe must answer
  // every access identically and evict equally often.
  const PolicySpec spec = policy_spec_from_name(GetParam());
  for (std::size_t t = 0; t < fuzz_traces().size(); ++t) {
    const trace::Trace& trace = fuzz_traces()[t];
    const std::uint64_t capacity = trace.overall_size_bytes() / 20;
    Cache sparse(capacity, make_policy(spec));
    Cache dense(capacity, make_policy(spec));
    const std::uint64_t evictions = support::expect_same_accesses(
        trace, sparse, dense, GetParam() + " trace " + std::to_string(t));
    EXPECT_EQ(sparse.eviction_count(), evictions);
    EXPECT_EQ(dense.eviction_count(), evictions);
    EXPECT_EQ(sparse.insertion_count(), dense.insertion_count());
  }
}

TEST(RandomSeedTest, SameSeedReproducesBitIdenticalResults) {
  // The seeded draw stream makes RANDOM a deterministic function of
  // (trace, capacity, seed): two runs with the same seed must agree on
  // every counter, on both representations.
  PolicySpec spec = policy_spec_from_name("RANDOM:seed=42");
  for (std::size_t t = 0; t < fuzz_traces().size(); ++t) {
    const trace::Trace& sparse = fuzz_traces()[t];
    const std::uint64_t capacity = sparse.overall_size_bytes() / 20;
    sim::expect_same_result(sim::simulate(sparse, capacity, spec),
                            sim::simulate(sparse, capacity, spec),
                            "RANDOM rerun trace " + std::to_string(t));
    sim::expect_same_result(
        sim::simulate(fuzz_dense_traces()[t], capacity, spec),
        sim::simulate(fuzz_dense_traces()[t], capacity, spec),
        "RANDOM dense rerun trace " + std::to_string(t));
  }
}

TEST(RandomSeedTest, DifferentSeedsGiveCloseButDistinctResults) {
  // Different seeds change individual victim picks (so the counters should
  // not be bit-identical on a non-trivial trace) while leaving the hit
  // ratio statistically indistinguishable: RANDOM's expected behavior under
  // IRM depends only on the popularity distribution, not the seed.
  const trace::Trace& t = fuzz_traces()[0];
  const std::uint64_t capacity = t.overall_size_bytes() / 20;
  const sim::SimResult a =
      sim::simulate(t, capacity, policy_spec_from_name("RANDOM:seed=1"));
  const sim::SimResult b =
      sim::simulate(t, capacity, policy_spec_from_name("RANDOM:seed=99"));
  EXPECT_NE(a.overall.hits, b.overall.hits);
  const double ha = a.overall.hit_rate();
  const double hb = b.overall.hit_rate();
  EXPECT_NEAR(ha, hb, 0.02) << "seed should not shift the hit ratio";
}

TEST(RandomSeedTest, SeedIsNotPartOfTheDisplayName) {
  // Result tables aggregate by scheme; two seeds are the same scheme.
  EXPECT_EQ(make_policy("RANDOM:seed=7")->name(), "RANDOM");
  EXPECT_EQ(make_policy("random")->name(), "RANDOM");
}

TEST(PolicyPropertyOptTest, DenseReplayMatchesSparseForOpt) {
  // OPT needs the whole request stream up front: its clairvoyant schedule
  // is keyed by request index, so one built from the densified trace serves
  // the cache fed raw ids too, and the two index modes must still answer
  // every access identically.
  for (std::size_t t = 0; t < fuzz_traces().size(); ++t) {
    const trace::Trace& trace = fuzz_traces()[t];
    const std::uint64_t capacity = trace.overall_size_bytes() / 20;
    const trace::DenseTrace& ids = fuzz_dense_traces()[t];
    Cache sparse(capacity, std::make_unique<OptPolicy>(ids));
    Cache dense(capacity, std::make_unique<OptPolicy>(ids));
    const std::uint64_t evictions = support::expect_same_accesses(
        trace, sparse, dense, "OPT trace " + std::to_string(t));
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(dense.eviction_count(), evictions);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertyTest,
                         testing::ValuesIn(all_policy_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace webcache::cache
