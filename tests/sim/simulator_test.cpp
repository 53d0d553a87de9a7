#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "obs/stats_sink.hpp"

namespace webcache::sim {
namespace {

using trace::DocumentClass;
using trace::Request;
using trace::Trace;

Request req(trace::DocumentId doc, std::uint64_t size,
            DocumentClass cls = DocumentClass::kOther) {
  Request r;
  r.document = doc;
  r.doc_class = cls;
  r.document_size = size;
  r.transfer_size = size;
  return r;
}

cache::PolicySpec lru() {
  cache::PolicySpec spec;
  spec.kind = cache::PolicyKind::kLru;
  return spec;
}

SimulatorOptions no_warmup() {
  SimulatorOptions opts;
  opts.warmup_fraction = 0.0;
  return opts;
}

TEST(Simulator, RejectsBadOptions) {
  Trace t;
  t.requests = {req(1, 10)};
  SimulatorOptions bad;
  bad.warmup_fraction = 1.0;
  EXPECT_THROW(simulate(t, 100, lru(), bad), std::invalid_argument);
  bad = SimulatorOptions{};
  bad.modification_threshold = 0.0;
  EXPECT_THROW(simulate(t, 100, lru(), bad), std::invalid_argument);
}

TEST(Simulator, BasicHitAccounting) {
  Trace t;
  t.requests = {req(1, 10), req(1, 10), req(2, 20), req(1, 10)};
  const SimResult r = simulate(t, 100, lru(), no_warmup());
  EXPECT_EQ(r.overall.requests, 4u);
  EXPECT_EQ(r.overall.hits, 2u);
  EXPECT_EQ(r.overall.requested_bytes, 50u);
  EXPECT_EQ(r.overall.hit_bytes, 20u);
  EXPECT_EQ(r.measured_requests, 4u);
  EXPECT_EQ(r.warmup_requests, 0u);
}

TEST(Simulator, PerClassAccountingIndependent) {
  Trace t;
  t.requests = {
      req(1, 10, DocumentClass::kImage), req(1, 10, DocumentClass::kImage),
      req(2, 1000, DocumentClass::kMultiMedia),
      req(2, 1000, DocumentClass::kMultiMedia),
      req(3, 50, DocumentClass::kHtml)};
  const SimResult r = simulate(t, 10000, lru(), no_warmup());
  EXPECT_DOUBLE_EQ(r.of(DocumentClass::kImage).hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.of(DocumentClass::kMultiMedia).hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(r.of(DocumentClass::kHtml).hit_rate(), 0.0);
  EXPECT_EQ(r.of(DocumentClass::kApplication).requests, 0u);
  // "the hit rate on images is ... hits on images / requested images".
  EXPECT_EQ(r.of(DocumentClass::kImage).requests, 2u);
}

TEST(Simulator, WarmupExcludedFromStats) {
  // 10 requests, 10% warmup -> first request unmeasured.
  Trace t;
  for (int i = 0; i < 10; ++i) t.requests.push_back(req(1, 10));
  SimulatorOptions opts;
  opts.warmup_fraction = 0.10;
  const SimResult r = simulate(t, 100, lru(), opts);
  EXPECT_EQ(r.warmup_requests, 1u);
  EXPECT_EQ(r.measured_requests, 9u);
  EXPECT_EQ(r.overall.requests, 9u);
  // The warmup request inserted the document, so all 9 measured are hits.
  EXPECT_EQ(r.overall.hits, 9u);
}

TEST(Simulator, WarmupImprovesMeasuredHitRate) {
  Trace t;
  for (int i = 0; i < 100; ++i) t.requests.push_back(req(i % 10, 10));
  SimulatorOptions cold = no_warmup();
  SimulatorOptions warm;
  warm.warmup_fraction = 0.10;
  const double cold_hr = simulate(t, 1000, lru(), cold).overall.hit_rate();
  const double warm_hr = simulate(t, 1000, lru(), warm).overall.hit_rate();
  EXPECT_GT(warm_hr, cold_hr);
  EXPECT_DOUBLE_EQ(warm_hr, 1.0);  // all compulsory misses fall in warmup
}

TEST(Simulator, ModificationRuleSmallChangeIsMiss) {
  // <5% size change => modification => miss (paper, Section 4.1).
  Trace t;
  t.requests = {req(1, 1000), req(1, 1040)};  // +4%
  const SimResult r = simulate(t, 10000, lru(), no_warmup());
  EXPECT_EQ(r.overall.hits, 0u);
  EXPECT_EQ(r.modification_misses, 1u);
  EXPECT_EQ(r.interrupted_transfers, 0u);
}

TEST(Simulator, InterruptedTransferStaysHit) {
  // >=5% size change => interrupted transfer => cached copy stays valid.
  Trace t;
  t.requests = {req(1, 1000), req(1, 300)};  // -70%
  const SimResult r = simulate(t, 10000, lru(), no_warmup());
  EXPECT_EQ(r.overall.hits, 1u);
  EXPECT_EQ(r.modification_misses, 0u);
  EXPECT_EQ(r.interrupted_transfers, 1u);
  // Byte accounting uses the trace-recorded (transferred) size.
  EXPECT_EQ(r.overall.hit_bytes, 300u);
}

TEST(Simulator, SizeTrackingFollowsLatestSize) {
  // 1000 -> 300 (interrupt, hit) -> 310 (<5% of 300: modification, miss).
  Trace t;
  t.requests = {req(1, 1000), req(1, 300), req(1, 310)};
  const SimResult r = simulate(t, 10000, lru(), no_warmup());
  EXPECT_EQ(r.overall.hits, 1u);
  EXPECT_EQ(r.modification_misses, 1u);
  EXPECT_EQ(r.interrupted_transfers, 1u);
}

TEST(Simulator, AnyChangeRuleTreatsInterruptsAsModifications) {
  Trace t;
  t.requests = {req(1, 1000), req(1, 300), req(1, 300)};
  SimulatorOptions opts = no_warmup();
  opts.modification_rule = ModificationRule::kAnyChange;
  const SimResult r = simulate(t, 10000, lru(), opts);
  // Second request: size changed -> modification miss. Third: same size,
  // plain hit.
  EXPECT_EQ(r.overall.hits, 1u);
  EXPECT_EQ(r.modification_misses, 1u);
  EXPECT_EQ(r.interrupted_transfers, 0u);
}

TEST(Simulator, NeverRuleIgnoresAllChanges) {
  Trace t;
  t.requests = {req(1, 1000), req(1, 1040), req(1, 300)};
  SimulatorOptions opts = no_warmup();
  opts.modification_rule = ModificationRule::kNever;
  const SimResult r = simulate(t, 10000, lru(), opts);
  EXPECT_EQ(r.overall.hits, 2u);
  EXPECT_EQ(r.modification_misses, 0u);
}

TEST(Simulator, SizeTrackingSpansEviction) {
  // The modification state is global (the paper's simulator tracks every
  // document in the trace), so a document evicted in between is still
  // recognized as modified.
  Trace t;
  t.requests = {req(1, 1000), req(2, 1000), req(1, 1040)};
  const SimResult r = simulate(t, 1000, lru(), no_warmup());  // 1 slot
  EXPECT_EQ(r.overall.hits, 0u);
  // Document 1 was NOT resident when its modification was seen.
  EXPECT_EQ(r.modification_misses, 0u);
}

TEST(Simulator, BypassCounted) {
  Trace t;
  t.requests = {req(1, 10), req(2, 5000)};
  const SimResult r = simulate(t, 100, lru(), no_warmup());
  EXPECT_EQ(r.bypasses, 1u);
  EXPECT_EQ(r.overall.requests, 2u);
  EXPECT_EQ(r.overall.hits, 0u);
}

TEST(Simulator, EvictionsReported) {
  Trace t;
  for (int i = 0; i < 20; ++i) t.requests.push_back(req(i, 10));
  const SimResult r = simulate(t, 100, lru(), no_warmup());
  EXPECT_EQ(r.evictions, 10u);
}

TEST(Simulator, OccupancySeriesRecorded) {
  Trace t;
  for (int i = 0; i < 100; ++i) {
    t.requests.push_back(req(i, 10, DocumentClass::kImage));
  }
  obs::RecordingSink sink(10);
  simulate(trace::densify(t), 10000, lru(), no_warmup(), &sink);
  const std::vector<obs::WindowSample>& windows = sink.series().windows;
  ASSERT_EQ(windows.size(), 10u);
  EXPECT_EQ(windows.front().last_request, 10u);
  EXPECT_EQ(windows.back().last_request, 100u);
  const cache::Occupancy& occ = windows.back().state.occupancy;
  EXPECT_EQ(occ.total_objects, 100u);
  EXPECT_DOUBLE_EQ(occ.object_fraction(DocumentClass::kImage), 1.0);
}

TEST(Simulator, PolicyNameAndCapacityRecorded) {
  Trace t;
  t.requests = {req(1, 10)};
  const SimResult r = simulate(t, 12345, lru(), no_warmup());
  EXPECT_EQ(r.policy_name, "LRU");
  EXPECT_EQ(r.capacity_bytes, 12345u);
}

TEST(Simulator, EmptyTrace) {
  const SimResult r = simulate(Trace{}, 100, lru(), {});
  EXPECT_EQ(r.overall.requests, 0u);
  EXPECT_EQ(r.overall.hit_rate(), 0.0);
}

}  // namespace
}  // namespace webcache::sim
