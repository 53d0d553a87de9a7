// Simulation metrics: per-class and overall hit/byte-hit counters, latency
// and fault totals.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "trace/request.hpp"

namespace webcache::sim {

struct HitCounters {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t requested_bytes = 0;
  std::uint64_t hit_bytes = 0;

  /// "the hit rate on images is calculated as the ratio between the number
  ///  of hits on images and the number of requested images" (Section 4.1).
  double hit_rate() const;
  double byte_hit_rate() const;

  void merge(const HitCounters& other);
};

/// Aggregate fault-injection counters (sim/faults.hpp). The request-side
/// fields (failovers, lost, origin fetches) count measured requests only,
/// matching the other counters; events_applied and probe_timeouts are mesh
/// events and count across the whole run, warm-up included. Runs without a
/// fault schedule leave everything zero.
struct FaultStats {
  /// Schedule events that changed node state (no-op events — crashing an
  /// already-down node, recovering an up one — are skipped and not counted).
  std::uint64_t events_applied = 0;
  /// Requests whose designated node was down and that were routed around it
  /// (sibling / root / origin), successfully or not.
  std::uint64_t failovers = 0;
  /// Requests lost to double faults: designated edge down AND root down and
  /// no sibling copy.
  std::uint64_t lost_requests = 0;
  std::uint64_t lost_bytes = 0;
  /// Timed-out sibling-probe attempts (each bounded retry counts once).
  std::uint64_t probe_timeouts = 0;
  /// Root-outage edge misses served straight from the origin; these still
  /// warm the edge cache.
  std::uint64_t origin_fetches = 0;
};

struct SimResult {
  std::string policy_name;
  std::uint64_t capacity_bytes = 0;

  HitCounters overall;
  std::array<HitCounters, trace::kDocumentClassCount> per_class{};

  std::uint64_t warmup_requests = 0;
  std::uint64_t measured_requests = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bypasses = 0;

  /// Origin-fetch latency accumulated over measured misses/bypasses, under
  /// the simulator's latency model (cache hits are counted as free). The
  /// institutional-proxy objective the paper states ("reducing end user
  /// latency") made quantitative.
  double miss_latency_ms = 0.0;
  /// Latency the cache saved: 1 - (incurred / all-miss latency).
  double latency_savings() const;
  /// What the same request stream would have cost with no cache at all.
  double all_miss_latency_ms = 0.0;
  /// Mean response latency per measured request.
  double mean_latency_ms() const;
  /// Requests counted as misses by the document-modification rule while the
  /// document was resident.
  std::uint64_t modification_misses = 0;
  /// Requests whose size change was classified as an interrupted transfer.
  std::uint64_t interrupted_transfers = 0;

  /// Fault-injection counters. Always zero: a single cache replays no
  /// FaultSchedule (only the hierarchy does, into HierarchyResult::faults);
  /// the field stays while the result and metrics schemas carry it.
  FaultStats faults;

  const HitCounters& of(trace::DocumentClass c) const {
    return per_class[static_cast<std::size_t>(c)];
  }
};

}  // namespace webcache::sim
