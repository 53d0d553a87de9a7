#include "sim/hierarchy.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/cache.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

namespace {

void count(HitCounters& counters, std::uint64_t bytes, bool hit) {
  counters.requests += 1;
  counters.requested_bytes += bytes;
  if (hit) {
    counters.hits += 1;
    counters.hit_bytes += bytes;
  }
}

void validate(const trace::DenseTrace& trace, const HierarchyConfig& config) {
  detail::validate_options(config.simulator);
  if (config.edge_count == 0) {
    throw std::invalid_argument("simulate_hierarchy: need at least one edge");
  }
  if (trace.clients.size() != trace.records.size()) {
    throw std::invalid_argument(
        "simulate_hierarchy: the trace has no client column (build it "
        "with trace::ClientColumn::kLoad)");
  }
}

// ICP sibling probe: scans the other edges and serves from the first one
// holding the document. Under faults, down siblings are skipped and a
// degraded sibling is consulted only if one of its bounded probe attempts
// does not time out. The caller decides about replication at the client's
// own edge.
template <typename F, obs::StatsSink Sink>
bool probe_siblings(const trace::ReplayRecord& r, std::uint64_t index,
                    const HierarchyConfig& config, std::uint32_t edge_index,
                    std::vector<std::unique_ptr<cache::Cache>>& edges,
                    F& faults, Sink& sink, FaultStats& stats) {
  if (!config.sibling_cooperation) return false;
  bool sibling_hit = false;
  for (std::uint32_t e = 0; e < config.edge_count && !sibling_hit; ++e) {
    if (e == edge_index) continue;
    if constexpr (F::kEnabled) {
      if (!faults.node_up(e)) continue;
      if (faults.degraded(e)) {
        bool reachable = false;
        for (std::uint32_t attempt = 0;
             attempt < faults.max_probe_attempts() && !reachable; ++attempt) {
          if (faults.probe_times_out(index, e, attempt)) {
            sink.on_probe_timeout();
            ++stats.probe_timeouts;
          } else {
            reachable = true;
          }
        }
        if (!reachable) continue;  // unreachable this request; keep scanning
      }
    }
    if (edges[e]->contains(r.document)) {
      edges[e]->touch(r.document);  // the sibling serves the object
      sibling_hit = true;
    }
  }
  return sibling_hit;
}

// The replay loop, shared between plain and fault-injected runs
// (F = NoFaults folds all fault handling away). Every cache in the mesh has
// already reserved the trace's dense universe.
template <typename F, obs::StatsSink Sink>
HierarchyResult hierarchy_loop(const trace::DenseTrace& trace,
                               const HierarchyConfig& config,
                               std::vector<std::unique_ptr<cache::Cache>>& edges,
                               cache::Cache& root, F& faults, Sink& sink) {
  HierarchyResult result;
  const std::uint64_t total = trace.total_requests();
  const auto warmup = static_cast<std::uint64_t>(std::floor(
      static_cast<double>(total) * config.simulator.warmup_fraction));
  trace::PreviousSizeCursor previous(trace);

  std::uint64_t index = 0;
  for (const trace::ReplayRecord& r : trace.records) {
    const std::uint32_t client = trace.clients[index];
    ++index;
    const bool measured = index > warmup;
    const std::uint64_t size = r.transfer_size;

    if constexpr (F::kEnabled) {
      faults.advance(index,
                     [&](std::uint32_t node, obs::FaultEventKind kind) {
                       if (kind == obs::FaultEventKind::kCrash) {
                         if (node == obs::kRootNode) {
                           root.crash();
                         } else {
                           edges[node]->crash();
                         }
                       }
                       sink.on_fault_event(node, kind);
                       ++result.faults.events_applied;
                     });
      sink.on_node_state(faults.up_nodes(), faults.total_nodes());
    }

    // Size changes follow the trace, not the caches: they record what the
    // origin served, so faults never change them.
    detail::SizeChange change;
    if (r.size_changed) {
      change = detail::classify_size_change(previous.take(r), size,
                                            config.simulator);
    }

    const std::uint32_t edge_index =
        client != 0 ? edge_for_client(client, config.edge_count)
                    : edge_for_request(index, config.edge_count);
    cache::Cache& edge = *edges[edge_index];
    const bool edge_up = faults.node_up(edge_index);
    const bool root_up = faults.root_up();

    bool edge_hit = false;
    bool sibling_hit = false;
    bool root_hit = false;
    bool root_consulted = false;  // root.access happened for this request
    // Only read under `if constexpr (F::kEnabled)`; unused on plain runs.
    [[maybe_unused]] bool failover = false;
    [[maybe_unused]] bool origin_fetch = false;
    [[maybe_unused]] bool lost = false;
    [[maybe_unused]] const std::uint64_t probe_timeouts_before =
        result.faults.probe_timeouts;

    if (change.modified) {
      if (edge_up && root_up) {
        // The origin's copy changed: every cached copy along the path is
        // stale. Refetch through the root (a forced root miss) and cache
        // the new version at the client's edge.
        edge.erase(r.document);
        root.access(r.document, size, r.doc_class, /*force_miss=*/true);
        edge.put(r.document, size, r.doc_class);
        root_consulted = true;
      } else if constexpr (F::kEnabled) {
        if (edge_up) {
          // Root outage: the refetch comes straight from the origin and
          // still replaces the edge's stale copy.
          edge.erase(r.document);
          edge.put(r.document, size, r.doc_class);
          origin_fetch = true;
        } else if (root_up) {
          // Dead edge: the root takes the refetch for its clients.
          failover = true;
          root.access(r.document, size, r.doc_class, /*force_miss=*/true);
          root_consulted = true;
        } else {
          failover = true;
          lost = true;
        }
      }
    } else if (edge_up) {
      edge_hit = edge.touch(r.document);
      if (!edge_hit) {
        // ICP sibling probe before escalating to the parent.
        sibling_hit = probe_siblings(r, index, config, edge_index, edges,
                                     faults, sink, result.faults);
        if (sibling_hit) {
          if (config.replicate_on_sibling_hit) {
            edge.put(r.document, size, r.doc_class);
          }
        } else if (root_up) {
          root_hit = root.access(r.document, size, r.doc_class, false).kind ==
                     cache::Cache::AccessKind::kHit;
          root_consulted = true;
          // Whatever the root/origin returned is cached at the edge.
          edge.put(r.document, size, r.doc_class);
        } else if constexpr (F::kEnabled) {
          // Root outage: origin fetch, and the edge still warms.
          origin_fetch = true;
          edge.put(r.document, size, r.doc_class);
        }
      }
    } else if constexpr (F::kEnabled) {
      // The client's edge is down: route around it — siblings first (no
      // replication; there is no live edge to warm), then the root.
      failover = true;
      sibling_hit = probe_siblings(r, index, config, edge_index, edges,
                                   faults, sink, result.faults);
      if (!sibling_hit) {
        if (root_up) {
          root_hit = root.access(r.document, size, r.doc_class, false).kind ==
                     cache::Cache::AccessKind::kHit;
          root_consulted = true;
        } else {
          lost = true;
        }
      }
    }

    if constexpr (F::kEnabled) {
      if (failover) sink.on_failover(measured);
      // Per-node feeds for the warm-up curves.
      if (edge_up) {
        sink.on_node_access(edge_index, r.doc_class, size, edge_hit, measured);
      }
      if (root_consulted) {
        sink.on_node_access(obs::kRootNode, r.doc_class, size, root_hit,
                            measured);
      }
      if (lost) {
        sink.on_request_lost(r.doc_class, size, measured);
        if (measured) {
          count(result.offered, size, false);
          ++result.faults.failovers;
          ++result.faults.lost_requests;
          result.faults.lost_bytes += size;
        }
        continue;  // no per-level attribution: no level saw the request
      }
    }

    // The sink observes the client-offered stream: a "hit" is service by
    // any level (own edge, sibling, or root).
    sink.on_access(r.doc_class, size,
                   edge_hit || sibling_hit || root_hit
                       ? cache::Cache::AccessKind::kHit
                       : cache::Cache::AccessKind::kMiss,
                   measured);

    if (!measured) continue;

    if constexpr (F::kEnabled) {
      if (failover) ++result.faults.failovers;
      if (origin_fetch) ++result.faults.origin_fetches;
    }

    const double fetch_latency =
        config.simulator.latency_setup_ms +
        static_cast<double>(size) / config.simulator.latency_bytes_per_ms;
    result.all_miss_latency_ms += fetch_latency;
    // Edge-level service (own edge or sibling copy) is free; a request
    // rerouted to the root or the origin pays the fetch, plus the RTT of
    // every probe it burned on degraded siblings before escalating.
    if (!(edge_hit || sibling_hit)) result.miss_latency_ms += fetch_latency;
    if constexpr (F::kEnabled) {
      result.miss_latency_ms +=
          config.probe_rtt_ms *
          static_cast<double>(result.faults.probe_timeouts -
                              probe_timeouts_before);
    }

    const auto cls = static_cast<std::size_t>(r.doc_class);
    count(result.offered, size, edge_hit || sibling_hit || root_hit);
    if (edge_up) {  // constant-folds to taken on plain runs
      count(result.edge_per_class[cls], size, edge_hit);
      result.edge_hits.requests += 1;
      result.edge_hits.requested_bytes += size;
    }
    if (edge_hit) {
      result.edge_hits.hits += 1;
      result.edge_hits.hit_bytes += size;
    } else if (sibling_hit) {
      count(result.sibling_hits, size, true);
    } else if (root_consulted) {
      ++result.root_requests;
      count(result.root_hits, size, root_hit);
      count(result.root_per_class[cls], size, root_hit);
    }
    // Origin fetches during a root outage carry no level attribution
    // either: FaultStats::origin_fetches counts them.
  }

  previous.expect_end();
  result.root_evictions = root.eviction_count();
  for (const auto& e : edges) result.edge_evictions += e->eviction_count();
  return result;
}

// One cache of the mesh, on the trace's dense universe, built exactly as
// the single-cache simulate() builds its one cache (HierarchyReference.*
// pins both levels to it).
std::unique_ptr<cache::Cache> make_cache(std::uint64_t capacity_bytes,
                                         const cache::PolicySpec& spec,
                                         std::uint64_t universe) {
  auto c = std::make_unique<cache::Cache>(capacity_bytes,
                                          cache::make_policy(spec));
  c->reserve_dense_ids(universe);
  return c;
}

std::vector<std::unique_ptr<cache::Cache>> make_edges(
    const HierarchyConfig& config, std::uint64_t universe) {
  std::vector<std::unique_ptr<cache::Cache>> edges;
  edges.reserve(config.edge_count);
  for (std::uint32_t e = 0; e < config.edge_count; ++e) {
    edges.push_back(
        make_cache(config.edge_capacity_bytes, config.edge_policy, universe));
  }
  return edges;
}

}  // namespace

std::uint32_t edge_for_request(std::uint64_t request_index,
                               std::uint32_t edge_count) {
  // SplitMix64 decorrelates consecutive request indices.
  return static_cast<std::uint32_t>(detail::mix64(request_index) %
                                    edge_count);
}

std::uint32_t edge_for_client(std::uint32_t client, std::uint32_t edge_count) {
  return static_cast<std::uint32_t>(detail::mix64(client) % edge_count);
}

double HierarchyResult::edge_hit_rate() const {
  return offered.requests == 0
             ? 0.0
             : static_cast<double>(edge_hits.hits + sibling_hits.hits) /
                   static_cast<double>(offered.requests);
}

double HierarchyResult::root_hit_rate() const {
  return root_requests == 0 ? 0.0
                            : static_cast<double>(root_hits.hits) /
                                  static_cast<double>(root_requests);
}

double HierarchyResult::combined_hit_rate() const {
  return offered.requests == 0
             ? 0.0
             : static_cast<double>(edge_hits.hits + sibling_hits.hits +
                                   root_hits.hits) /
                   static_cast<double>(offered.requests);
}

double HierarchyResult::edge_byte_hit_rate() const {
  return offered.requested_bytes == 0
             ? 0.0
             : static_cast<double>(edge_hits.hit_bytes +
                                   sibling_hits.hit_bytes) /
                   static_cast<double>(offered.requested_bytes);
}

double HierarchyResult::root_byte_hit_rate() const {
  return root_hits.requested_bytes == 0
             ? 0.0
             : static_cast<double>(root_hits.hit_bytes) /
                   static_cast<double>(root_hits.requested_bytes);
}

double HierarchyResult::combined_byte_hit_rate() const {
  return offered.requested_bytes == 0
             ? 0.0
             : static_cast<double>(edge_hits.hit_bytes +
                                   sibling_hits.hit_bytes +
                                   root_hits.hit_bytes) /
                   static_cast<double>(offered.requested_bytes);
}

double HierarchyResult::origin_traffic_fraction() const {
  return 1.0 - combined_byte_hit_rate();
}

double HierarchyResult::latency_savings() const {
  return all_miss_latency_ms == 0.0
             ? 0.0
             : 1.0 - miss_latency_ms / all_miss_latency_ms;
}

namespace {

// Instrumented runs snapshot the whole mesh: occupancy (per class and in
// total) and heap entries summed over edges + root; the aging/beta trace is
// the root's (the level the paper's GD*(packet) analysis concerns — edges
// each run their own estimator, probe them separately if needed).
void attach_sink(obs::RecordingSink& sink,
                 std::vector<std::unique_ptr<cache::Cache>>& edges,
                 cache::Cache& root) {
  sink.begin_run([&edges, &root] {
    obs::Snapshot snap;
    snap.occupancy = root.occupancy();
    for (const auto& edge : edges) snap.occupancy.add(edge->occupancy());
    snap.heap_entries = snap.occupancy.total_objects;
    const cache::PolicyProbe probe = root.policy_probe();
    snap.aging = probe.aging;
    snap.beta = probe.beta;
    return snap;
  });
  for (const auto& edge : edges) edge->set_removal_listener(&sink);
  root.set_removal_listener(&sink);
}

}  // namespace

HierarchyResult simulate_hierarchy(const trace::DenseTrace& trace,
                                   const HierarchyConfig& config,
                                   obs::RecordingSink* sink,
                                   const FaultSchedule* faults) {
  validate(trace, config);
  return detail::dispatch_replay(
      sink, faults, config.edge_count, /*has_root=*/true,
      [&](auto& s, auto& f) {
        constexpr bool kRecording = detail::kRecordingSink<decltype(s)>;
        // Each cache sees a subset of the trace's dense universe, so every
        // one reserves the full bound.
        const std::uint64_t universe = trace.document_count();
        std::vector<std::unique_ptr<cache::Cache>> edges =
            make_edges(config, universe);
        const std::unique_ptr<cache::Cache> root = make_cache(
            config.root_capacity_bytes, config.root_policy, universe);
        if constexpr (kRecording) attach_sink(s, edges, *root);
        HierarchyResult result =
            hierarchy_loop(trace, config, edges, *root, f, s);
        if constexpr (kRecording) s.end_run();
        return result;
      });
}

}  // namespace webcache::sim
