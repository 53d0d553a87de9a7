// Two-level proxy hierarchy simulation.
//
// The paper distinguishes institutional proxies (constant cost, hit-rate
// objective) from backbone proxies (packet cost, byte-hit-rate objective)
// but studies each level in isolation. The hierarchy simulator composes
// them: N institutional (edge) proxies in front of one backbone (root)
// proxy. Every request is served by its edge; edge misses are forwarded to
// the root; root misses go to the origin. The root therefore sees the
// *filtered* stream — one-timers and whatever the edges fail to hold —
// which is exactly the workload the DFN/RTP traces were recorded on
// ("collected at a primary-level proxy cache in the core network").
//
// Client attachment: requests carrying a client id (the synthetic
// generator assigns them; the Squid preprocessor hashes client addresses)
// are routed to the edge serving that client, so one client's re-references
// always land on the same edge proxy. Requests without a client id (id 0,
// e.g. version-1 trace files) fall back to a deterministic hash of the
// request index — a uniform-mixing approximation.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/factory.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

struct HierarchyConfig {
  std::uint32_t edge_count = 4;
  std::uint64_t edge_capacity_bytes = 0;
  cache::PolicySpec edge_policy;   // typically a constant-cost scheme
  std::uint64_t root_capacity_bytes = 0;
  cache::PolicySpec root_policy;   // typically a packet-cost scheme
  SimulatorOptions simulator;      // warm-up + modification rule

  /// ICP-style sibling cooperation, as in the DFN cache mesh the paper's
  /// trace was recorded in: an edge miss first probes the sibling edges
  /// and serves from a sibling copy before escalating to the root.
  bool sibling_cooperation = false;
  /// On a sibling hit, also store the document at the client's own edge
  /// (the usual ICP fetch-and-cache behaviour).
  bool replicate_on_sibling_hit = true;

  /// Round-trip time (ms) charged to a request's latency for every sibling
  /// probe attempt that times out on its path — a rerouted fetch pays for
  /// the probes it burned before escalating. 0 keeps probe latency out of
  /// the model entirely; with a zero-timeout schedule the latency totals
  /// are bit-identical to a fault-free run either way
  /// (tests/sim/hierarchy_latency_test.cpp).
  double probe_rtt_ms = 0.0;
};

struct HierarchyResult {
  /// Measured request stream (after warm-up).
  HitCounters offered;                       // everything clients asked for
  HitCounters edge_hits;                     // served at the client's edge
  HitCounters sibling_hits;                  // served by a sibling edge
  HitCounters root_hits;                     // edge miss, served at root
  std::array<HitCounters, trace::kDocumentClassCount> edge_per_class{};
  std::array<HitCounters, trace::kDocumentClassCount> root_per_class{};

  std::uint64_t root_requests = 0;           // forwarded edge misses
  std::uint64_t edge_evictions = 0;
  std::uint64_t root_evictions = 0;

  /// Fault-injection counters; all zero unless the run carried a
  /// FaultSchedule. Lost requests are counted in offered.requests but never
  /// in any hit counter, and they carry no per-level attribution (no level
  /// saw them).
  FaultStats faults;

  /// Fraction of client requests served at the edge level (own edge plus
  /// siblings when cooperation is on).
  double edge_hit_rate() const;
  /// Fraction of *forwarded* requests served at the root (the root's own
  /// hit rate on its filtered stream).
  double root_hit_rate() const;
  /// Fraction of client requests served by either level.
  double combined_hit_rate() const;
  double edge_byte_hit_rate() const;
  double root_byte_hit_rate() const;
  double combined_byte_hit_rate() const;
  /// Bytes fetched from the origin per requested byte (lower is better;
  /// 1 - combined byte hit rate).
  double origin_traffic_fraction() const;

  /// Latency incurred over measured requests under the simulator's fetch
  /// model: requests served at the edge level (own edge or sibling) are
  /// free, anything rerouted to the root or the origin pays the fetch
  /// latency, and every timed-out sibling probe on a request's path adds
  /// HierarchyConfig::probe_rtt_ms. Lost requests are excluded (nothing
  /// was fetched for them).
  double miss_latency_ms = 0.0;
  /// What the same measured stream would cost with no cache mesh at all.
  double all_miss_latency_ms = 0.0;
  /// Latency the mesh saved: 1 - (incurred / all-miss latency).
  double latency_savings() const;
};

/// Replays a densified trace through the mesh. Every edge cache and the
/// root reserve the trace's dense universe, so the object tables' id
/// indices are flat arrays indexed by dense id, and size changes come from
/// the trace's previous_sizes column.
/// The trace must carry its client column (trace::densify or
/// trace::read_dense_trace_file with trace::ClientColumn::kLoad), which
/// keeps the source's client ids, so requests attach to the same edges as
/// the source trace's; without it the call throws
/// std::invalid_argument. Each cache is built exactly as the single-cache
/// simulate() builds its one cache: a one-edge mesh without siblings gives
/// the edge the counters of simulate() at the edge capacity, and with a
/// zero-capacity edge the root gets those of simulate() at the root
/// capacity (tests/sim/hierarchy_test.cpp, HierarchyReference.*). Config
/// errors — no edges, or simulator options that simulate() rejects — throw
/// std::invalid_argument.
///
/// `sink` (optional) observes the client-offered stream (a "hit" is
/// service by any level), evictions from every cache in the mesh, and
/// per-window snapshots of mesh-wide per-class occupancy and heap size with
/// the *root's* aging/beta trace; results are bit-identical without it.
///
/// `faults` (optional) replays a schedule: edge crashes lose the edge's
/// contents and divert its clients to the siblings (when cooperation is on;
/// down siblings are skipped, degraded ones may time out with bounded
/// retry) and then to the root; during a root outage edge misses are
/// served from the origin and still warm the edge; an edge-down/root-down
/// double fault loses the request (counted in offered.requests, never as a
/// hit). With an empty schedule the result is bit-identical to a run
/// without one (tests/sim/fault_equivalence_test.cpp). With a sink, the
/// sink's fault hooks see per-window availability, failovers, losses, and
/// post-recovery warm-up curves.
HierarchyResult simulate_hierarchy(const trace::DenseTrace& trace,
                                   const HierarchyConfig& config,
                                   obs::RecordingSink* sink = nullptr,
                                   const FaultSchedule* faults = nullptr);

/// The deterministic request -> edge assignment (exposed for tests):
/// by client id when present, by request index otherwise.
std::uint32_t edge_for_request(std::uint64_t request_index,
                               std::uint32_t edge_count);
std::uint32_t edge_for_client(std::uint32_t client, std::uint32_t edge_count);

}  // namespace webcache::sim
