#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "util/rng.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;
using trace::Request;
using trace::Trace;

Request req(trace::DocumentId doc, std::uint64_t size = 1) {
  Request r;
  r.document = doc;
  r.document_size = size;
  r.transfer_size = size;
  return r;
}

/// Replays the trace through a Cache wired to OPT; returns the hit count.
std::uint64_t replay_opt(const Trace& t, std::uint64_t capacity) {
  Cache cache(capacity, std::make_unique<OptPolicy>(trace::densify(t)));
  std::uint64_t hits = 0;
  for (const Request& r : t.requests) {
    if (cache.access(r.document, r.transfer_size, r.doc_class).kind ==
        Cache::AccessKind::kHit) {
      ++hits;
    }
  }
  return hits;
}

std::uint64_t replay_named(const Trace& t, std::uint64_t capacity,
                           const char* name) {
  Cache cache(capacity, make_policy(name));
  std::uint64_t hits = 0;
  for (const Request& r : t.requests) {
    if (cache.access(r.document, r.transfer_size, r.doc_class).kind ==
        Cache::AccessKind::kHit) {
      ++hits;
    }
  }
  return hits;
}

TEST(Opt, BeladyTextbookExample) {
  // Unit-size objects, 3 slots: the classic reference string where OPT gets
  // more hits than LRU. Sequence: 1 2 3 4 1 2 5 1 2 3 4 5.
  Trace t;
  for (const trace::DocumentId d : {1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5}) {
    t.requests.push_back(req(d));
  }
  // OPT (Belady) on this string with 3 frames: 7 faults -> 5 hits.
  EXPECT_EQ(replay_opt(t, 3), 5u);
  // LRU: 10 faults -> 2 hits.
  EXPECT_EQ(replay_named(t, 3, "LRU"), 2u);
}

TEST(Opt, EvictsNeverReferencedAgainFirst) {
  // Docs 1 and 2 resident; 2 never recurs, 1 recurs; inserting 3 must
  // evict 2 even though 1 is older and colder by LRU standards.
  Trace t;
  t.requests = {req(1), req(2), req(3), req(1)};
  EXPECT_EQ(replay_opt(t, 2), 1u);  // final access to 1 hits
}

TEST(Opt, AmongDeadObjectsEvictsLargestFirst) {
  Trace t;
  t.requests = {req(10, 5), req(11, 50)};
  OptPolicy policy(trace::densify(t));
  CacheObject small;
  small.id = 10;
  small.slot = 0;
  small.size = 5;
  small.last_access = 1;
  CacheObject big;
  big.id = 11;
  big.slot = 1;
  big.size = 50;
  big.last_access = 2;
  policy.on_insert(small);
  policy.on_insert(big);
  // Neither recurs after its access -> both dead; the larger goes first.
  EXPECT_EQ(policy.evict(0), big.slot);
}

TEST(Opt, DominatesEveryOnlinePolicyOnUnitObjects) {
  // With unit sizes the furthest-next-reference rule IS Belady's optimum,
  // so no online policy may beat it. (With variable sizes the greedy is
  // only a heuristic bound, hence the unit-size restriction here.)
  util::Rng rng(77);
  Trace t;
  for (int i = 0; i < 20000; ++i) {
    t.requests.push_back(req(rng.below(1 + rng.below(500))));
  }
  const std::uint64_t capacity = 50;
  const std::uint64_t opt_hits = replay_opt(t, capacity);
  for (const char* name : {"LRU", "FIFO", "LFU", "LFU-DA", "GDS(1)",
                           "GD*(1)", "SIZE"}) {
    EXPECT_GE(opt_hits, replay_named(t, capacity, name)) << name;
  }
}

TEST(Opt, WorksThroughSimulatorOverload) {
  util::Rng rng(5);
  Trace t;
  for (int i = 0; i < 5000; ++i) {
    t.requests.push_back(req(rng.below(200), 100 + rng.below(900)));
  }
  sim::SimulatorOptions opts;
  opts.warmup_fraction = 0.0;
  const trace::DenseTrace dense = trace::densify(t);
  Cache oracle(20000, std::make_unique<OptPolicy>(dense));
  const sim::SimResult opt = sim::simulate(dense, oracle, opts);
  EXPECT_EQ(opt.policy_name, "OPT");
  const sim::SimResult lru =
      sim::simulate(t, 20000, policy_spec_from_name("LRU"), opts);
  EXPECT_GE(opt.overall.hit_rate(), lru.overall.hit_rate());
  EXPECT_GT(opt.overall.hit_rate(), 0.0);
}

TEST(Opt, CheckpointIsRefusedByName) {
  // The oracle is the future of one trace, which no checkpoint carries.
  Trace t;
  for (const trace::DocumentId d : {1, 2, 1, 3}) t.requests.push_back(req(d));
  Cache cache(2, std::make_unique<OptPolicy>(trace::densify(t)));
  for (const Request& r : t.requests) {
    cache.access(r.document, r.transfer_size, r.doc_class);
  }
  util::StateWriter w;
  try {
    cache.save_state(w);
    FAIL() << "an OPT cache saved its state";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("'OPT'"), std::string::npos)
        << e.what();
  }
}

TEST(Opt, ClearAndReplayIsDeterministic) {
  util::Rng rng(9);
  Trace t;
  for (int i = 0; i < 3000; ++i) t.requests.push_back(req(rng.below(100)));
  const std::uint64_t first = replay_opt(t, 20);
  const std::uint64_t second = replay_opt(t, 20);
  EXPECT_EQ(first, second);
}

TEST(Opt, SweepCellMatchesDenseSimulateOnGoldenTrace) {
  // A sweep's OPT column builds the oracle per cell from the densified
  // trace; every cell must equal the dense replay with a hand-built one.
  const trace::DenseTrace t = trace::densify(trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct"));
  sim::SweepConfig config;
  config.cache_fractions = {0.01, 0.04, 0.16};
  config.policies = {policy_spec_from_name("OPT"),
                     policy_spec_from_name("LRU")};
  config.threads = 2;
  const sim::SweepResult sweep = sim::run_sweep(t, config);
  for (const sim::SweepPoint& point : sweep.points) {
    Cache oracle(point.capacity_bytes, std::make_unique<OptPolicy>(t));
    const sim::SimResult expected =
        sim::simulate(t, oracle, config.simulator);
    const sim::SimResult& cell = point.results[0];
    EXPECT_EQ(cell.policy_name, "OPT");
    EXPECT_EQ(cell.evictions, expected.evictions);
    EXPECT_EQ(cell.modification_misses, expected.modification_misses);
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      EXPECT_EQ(cell.per_class[c].requests, expected.per_class[c].requests);
      EXPECT_EQ(cell.per_class[c].hits, expected.per_class[c].hits);
      EXPECT_EQ(cell.per_class[c].hit_bytes, expected.per_class[c].hit_bytes);
    }
    EXPECT_EQ(cell.overall.hits, expected.overall.hits);
  }

  // The oracle assumes every request reaches the cache, which a fault
  // schedule breaks.
  config.faults.events.push_back({});
  EXPECT_THROW(sim::run_sweep(t, config), std::invalid_argument);
}

}  // namespace
}  // namespace webcache::cache
