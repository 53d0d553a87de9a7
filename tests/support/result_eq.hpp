// Field-by-field SimResult equality for the equivalence suites. Two
// replays of one trace accumulate the same doubles in the same order, so
// the latency sums are compared exactly too.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "sim/metrics.hpp"

namespace webcache::sim {

inline void expect_same_counters(const HitCounters& a, const HitCounters& b,
                                 const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

inline void expect_same_result(const SimResult& a, const SimResult& b,
                               const std::string& label) {
  EXPECT_EQ(a.policy_name, b.policy_name) << label;
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes) << label;
  expect_same_counters(a.overall, b.overall, label + " overall");
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    expect_same_counters(a.per_class[c], b.per_class[c],
                         label + " class " + std::to_string(c));
  }
  EXPECT_EQ(a.warmup_requests, b.warmup_requests) << label;
  EXPECT_EQ(a.measured_requests, b.measured_requests) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.bypasses, b.bypasses) << label;
  EXPECT_EQ(a.miss_latency_ms, b.miss_latency_ms) << label;
  EXPECT_EQ(a.all_miss_latency_ms, b.all_miss_latency_ms) << label;
  EXPECT_EQ(a.modification_misses, b.modification_misses) << label;
  EXPECT_EQ(a.interrupted_transfers, b.interrupted_transfers) << label;
  EXPECT_EQ(a.faults.events_applied, b.faults.events_applied) << label;
  EXPECT_EQ(a.faults.failovers, b.faults.failovers) << label;
  EXPECT_EQ(a.faults.lost_requests, b.faults.lost_requests) << label;
  EXPECT_EQ(a.faults.lost_bytes, b.faults.lost_bytes) << label;
  EXPECT_EQ(a.faults.probe_timeouts, b.faults.probe_timeouts) << label;
  EXPECT_EQ(a.faults.origin_fetches, b.faults.origin_fetches) << label;
}

}  // namespace webcache::sim
