// Zero-cost event instrumentation for the replay loops.
//
// The simulator, hierarchy, and frontend replay loops are templated on a
// StatsSink. The default NullSink has empty inline hooks, so the
// uninstrumented instantiation is the pre-existing code path: bit-identical
// results (ObsEquivalence* and RecordingSink.SeriesSumsBackToAggregateExactly
// prove it) and no added per-request work; perfbench's
// obs.recording_ns_per_req prices the recording instantiation. The
// RecordingSink instantiation collects per-request-window time series —
// hit/byte-hit counters, evictions and evicted bytes (per document class),
// admission rejections, and an end-of-window snapshot of cache occupancy
// (per document class and in total), the policy's heap size, the aging
// term L, and GD*'s online beta estimate — the dynamic behaviors behind
// the paper's Figures 1-3.
//
// Event feeds:
//   * request outcomes arrive from the replay loop (StatsSink::on_access);
//   * evictions/invalidations arrive through the cache's RemovalListener
//     seam (RecordingSink implements it; attach via
//     CacheFrontend::set_removal_listener);
//   * window-boundary snapshots pull from a SnapshotFn — a frontend's
//     occupancy() + policy_probe() by default, or a caller-provided
//     closure for composites (the hierarchy sums edges + root).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "trace/document_class.hpp"

namespace webcache::obs {

/// End-of-window state snapshot: occupancy (per class and in total — the
/// paper's Figure 1) plus the policy probe.
struct Snapshot {
  cache::Occupancy occupancy;
  /// Policy index entries: one per resident object in every policy, so
  /// occupancy.total_objects.
  std::uint64_t heap_entries = 0;
  std::optional<double> aging;  // L (GDS family inflation, LFU-DA cache age)
  std::optional<double> beta;   // GD*'s online estimate
};

using SnapshotFn = std::function<Snapshot()>;

/// Builds the default snapshot closure for a frontend.
SnapshotFn snapshot_from(const cache::CacheFrontend& frontend);

/// Flow counters accumulated over one window (and, summed, over the run).
/// Request-side fields count measured requests only (warm-up excluded,
/// matching the aggregate SimResult); eviction-side fields count every
/// eviction including warm-up (matching SimResult::evictions).
struct WindowCounters {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t requested_bytes = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t evicted_bytes = 0;
  /// Requests lost to faults (counted in `requests`, never in `hits`, so
  /// hits + misses + lost == requests with misses = requests - hits - lost).
  std::uint64_t lost = 0;
  std::uint64_t lost_bytes = 0;

  double hit_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
  double byte_hit_rate() const {
    return requested_bytes == 0 ? 0.0
                                : static_cast<double>(hit_bytes) /
                                      static_cast<double>(requested_bytes);
  }

  void add(const WindowCounters& other);
};

/// One window of the time series: flow counters (overall + per class),
/// admission rejections, and the end-of-window snapshot.
struct WindowSample {
  std::uint64_t first_request = 0;  // 1-based request index, inclusive
  std::uint64_t last_request = 0;

  WindowCounters overall;
  std::array<WindowCounters, trace::kDocumentClassCount> per_class{};

  std::uint64_t bypasses = 0;       // measured admission rejections
  std::uint64_t invalidations = 0;  // non-eviction removals (modifications)

  // ---- fault-injection feed (all zero without a FaultSchedule) ----
  std::uint64_t failovers = 0;       // measured requests routed around a
                                     // down node
  std::uint64_t probe_timeouts = 0;  // timed-out sibling-probe attempts
  std::uint64_t fault_events = 0;    // schedule events applied this window
  /// Per-request availability accumulator: each on_node_state call adds the
  /// number of nodes currently up. Mean availability over the window is
  /// node_up_sum / (node_samples * node_count); node_samples == 0 means the
  /// run was not fault-instrumented (availability reports as absent).
  std::uint64_t node_up_sum = 0;
  std::uint64_t node_samples = 0;

  /// Mean fraction of mesh nodes up over the window, or nullopt for
  /// uninstrumented runs. node_count is MetricsSeries::fault_nodes.
  std::optional<double> availability(std::uint64_t node_count) const {
    if (node_samples == 0 || node_count == 0) return std::nullopt;
    return static_cast<double>(node_up_sum) /
           (static_cast<double>(node_samples) *
            static_cast<double>(node_count));
  }

  Snapshot state;  // taken when the window closed
};

/// The node id the fault feed uses for the hierarchy root (edges use their
/// index). Partitioned caches use the document-class index.
inline constexpr std::uint32_t kRootNode = 0xffffffffu;

/// Fault events as the sink sees them (primitive — the obs layer does not
/// depend on sim/faults.hpp; sim::FaultKind maps onto this).
enum class FaultEventKind : std::uint8_t {
  kCrash,     // node contents lost, node down
  kRecovery,  // node back up, cold
  kDegrade,   // sibling probes to the node start timing out
  kRestore,   // probe path healthy again
};

/// Post-recovery warm-up: one fixed-length window of a restarted node's own
/// request stream (measured accesses only).
struct WarmupWindow {
  WindowCounters overall;  // eviction/lost fields unused (zero)
  std::array<WindowCounters, trace::kDocumentClassCount> per_class{};
};

/// Hit rate per window since a node restarted — the cold-start transient
/// the paper observes once, replayed at every recovery. Windows hold
/// MetricsSeries::window_requests accesses of the node (last may be short);
/// tracking stops at kMaxWarmupWindows or when the node crashes again.
struct WarmupCurve {
  std::uint32_t node = 0;          // edge index, or kRootNode
  std::uint64_t recovered_at = 0;  // 1-based trace request index
  std::vector<WarmupWindow> windows;
};

/// The collected series plus roll-up helpers used by the property tests.
struct MetricsSeries {
  std::uint64_t window_requests = 0;  // configured window length
  std::uint64_t total_requests = 0;   // requests observed (incl. warm-up)
  std::vector<WindowSample> windows;

  /// Fault-injection series: mesh node count (edges + root, or partitions;
  /// 0 for uninstrumented runs) and the post-recovery warm-up curves.
  std::uint64_t fault_nodes = 0;
  std::vector<WarmupCurve> warmup_curves;

  /// Sum of the per-window overall counters; must equal the aggregate
  /// SimResult (requests/hits/bytes over measured traffic, evictions over
  /// the whole run).
  WindowCounters totals() const;
  /// Same roll-up per document class.
  std::array<WindowCounters, trace::kDocumentClassCount> class_totals() const;
  std::uint64_t total_bypasses() const;
};

/// The hooks a replay loop invokes. NullSink's are empty and inline — the
/// compiler removes them, keeping the uninstrumented build at zero cost.
/// The fault hooks are invoked only by the fault-aware loops (sim/faults);
/// plain replays never call them.
template <typename S>
concept StatsSink = requires(S sink, trace::DocumentClass cls,
                             std::uint64_t size,
                             cache::Cache::AccessKind kind, bool measured,
                             std::uint32_t node, FaultEventKind fault_kind) {
  sink.on_access(cls, size, kind, measured);
  sink.on_request_lost(cls, size, measured);
  sink.on_failover(measured);
  sink.on_probe_timeout();
  sink.on_fault_event(node, fault_kind);
  sink.on_node_state(node, node);
  sink.on_node_access(node, cls, size, measured, measured);
};

/// The zero-overhead default: every hook is an inline no-op.
class NullSink {
 public:
  void on_access(trace::DocumentClass /*cls*/, std::uint64_t /*size*/,
                 cache::Cache::AccessKind /*kind*/, bool /*measured*/) {}
  void on_request_lost(trace::DocumentClass /*cls*/, std::uint64_t /*size*/,
                       bool /*measured*/) {}
  void on_failover(bool /*measured*/) {}
  void on_probe_timeout() {}
  void on_fault_event(std::uint32_t /*node*/, FaultEventKind /*kind*/) {}
  void on_node_state(std::uint32_t /*up_nodes*/, std::uint32_t /*nodes*/) {}
  void on_node_access(std::uint32_t /*node*/, trace::DocumentClass /*cls*/,
                      std::uint64_t /*size*/, bool /*hit*/,
                      bool /*measured*/) {}
};

/// Collects the windowed time series. One sink instruments one run: call
/// begin_run() (installs the removal listener and the snapshot source),
/// replay, then end_run() (flushes the partial tail window and detaches).
/// begin_run resets the series, so a sink may be reused run-to-run.
class RecordingSink final : public cache::RemovalListener {
 public:
  /// Windows are measured in requests. The last window of a run may be
  /// shorter; its last_request tells.
  explicit RecordingSink(std::uint64_t window_requests = 10000);

  /// Attaches to a frontend: removal listener installed, snapshots pull
  /// from occupancy() + policy_probe().
  void begin_run(cache::CacheFrontend& frontend);
  /// Composite form: the caller installs this sink as RemovalListener on
  /// each underlying cache and supplies the snapshot closure.
  void begin_run(SnapshotFn snapshot);
  /// Flushes the tail window and detaches from the frontend (if attached).
  void end_run();

  /// Replay-loop hook: one call per trace request, after the access.
  /// Inline: this is the only RecordingSink code on the replay hot path,
  /// and an out-of-line call per request costs several percent on the
  /// dense-id loop (tens of ns per request). Window rolls stay cold.
  void on_access(trace::DocumentClass cls, std::uint64_t size,
                 cache::Cache::AccessKind kind, bool measured) {
    if (!window_open_) open_window();
    ++series_.total_requests;
    current_.last_request = series_.total_requests;

    if (measured) {
      WindowCounters& per_class =
          current_.per_class[static_cast<std::size_t>(cls)];
      current_.overall.requests += 1;
      current_.overall.requested_bytes += size;
      per_class.requests += 1;
      per_class.requested_bytes += size;
      switch (kind) {
        case cache::Cache::AccessKind::kHit:
          current_.overall.hits += 1;
          current_.overall.hit_bytes += size;
          per_class.hits += 1;
          per_class.hit_bytes += size;
          break;
        case cache::Cache::AccessKind::kBypass:
          current_.bypasses += 1;
          break;
        case cache::Cache::AccessKind::kMiss:
          break;
      }
    }

    if (series_.total_requests % series_.window_requests == 0) {
      close_window();
    }
  }

  // ---- fault-injection hooks (called by the fault-aware loops only) ----
  //
  // Per-request hooks (on_node_state, on_failover, on_probe_timeout,
  // on_node_access, on_fault_event) fire BEFORE the request's terminal
  // on_access / on_request_lost, which performs the window roll — so they
  // always land in the window that contains the request.

  /// Terminal hook for a request no node could serve (double fault). Rolls
  /// the request stream like on_access, but the request lands in `lost` —
  /// counted in requests/requested_bytes (overall and per class, keeping the
  /// class sums equal to the overall counters), never in hits.
  void on_request_lost(trace::DocumentClass cls, std::uint64_t size,
                       bool measured) {
    if (!window_open_) open_window();
    ++series_.total_requests;
    current_.last_request = series_.total_requests;
    if (measured) {
      WindowCounters& per_class =
          current_.per_class[static_cast<std::size_t>(cls)];
      current_.overall.requests += 1;
      current_.overall.requested_bytes += size;
      current_.overall.lost += 1;
      current_.overall.lost_bytes += size;
      per_class.requests += 1;
      per_class.requested_bytes += size;
      per_class.lost += 1;
      per_class.lost_bytes += size;
    }
    if (series_.total_requests % series_.window_requests == 0) {
      close_window();
    }
  }

  /// A request whose designated node was down and was routed around it.
  void on_failover(bool measured) {
    if (!window_open_) open_window();
    if (measured) current_.failovers += 1;
  }

  /// One timed-out sibling-probe attempt (counted regardless of warm-up:
  /// the timeout is a mesh event, not a request-outcome statistic).
  void on_probe_timeout() {
    if (!window_open_) open_window();
    current_.probe_timeouts += 1;
  }

  /// Availability accumulator: called once per request with the number of
  /// mesh nodes currently up.
  void on_node_state(std::uint32_t up_nodes, std::uint32_t nodes) {
    if (!window_open_) open_window();
    current_.node_up_sum += up_nodes;
    current_.node_samples += 1;
    if (nodes > series_.fault_nodes) series_.fault_nodes = nodes;
  }

  /// A state-changing schedule event was applied. kRecovery starts a
  /// warm-up curve for the node; kCrash finalizes a running one.
  void on_fault_event(std::uint32_t node, FaultEventKind kind);

  /// The per-node access feed behind the warm-up curves: which node served
  /// (or missed) this request. Only measured accesses advance the curve.
  void on_node_access(std::uint32_t node, trace::DocumentClass cls,
                      std::uint64_t size, bool hit, bool measured);

  /// RemovalListener: evictions/invalidations land in the current window.
  void on_removal(const cache::CacheObject& obj,
                  cache::RemovalCause cause) override;

  const MetricsSeries& series() const { return series_; }
  std::uint64_t window_requests() const { return series_.window_requests; }

  // ---- checkpointing ----
  //
  // Serializes the collected series, the in-flight window, and any running
  // warm-up trackers, so a resumed run emits windows bit-identical to an
  // uninterrupted one. restore_state must be called AFTER begin_run (which
  // resets the series and re-attaches the listener/snapshot source); the
  // configured window length must match the saved one.

  void save_state(util::StateWriter& w) const;
  void restore_state(util::StateReader& r);

 private:
  /// Warm-up curves longer than this are truncated (the transient the
  /// curves exist to show is over long before).
  static constexpr std::size_t kMaxWarmupWindows = 64;

  /// In-flight warm-up curve for one recovered node.
  struct WarmupTracker {
    WarmupCurve curve;
    WarmupWindow current;
    std::uint64_t accesses_in_window = 0;
    bool capped = false;  // hit kMaxWarmupWindows; ignore further accesses
  };

  void open_window();
  void close_window();
  /// Flushes a tracker's partial window and moves its curve to the series.
  void finish_warmup(WarmupTracker& tracker);
  /// Finalizes and removes the tracker for `node`, if one is running.
  void finish_warmup_for(std::uint32_t node);

  MetricsSeries series_;
  WindowSample current_;
  bool window_open_ = false;
  cache::CacheFrontend* attached_ = nullptr;
  SnapshotFn snapshot_;
  /// At most one live tracker per node; fault runs have few nodes, so a
  /// linear scan beats a map.
  std::vector<WarmupTracker> warmup_trackers_;
};

static_assert(StatsSink<NullSink>);
static_assert(StatsSink<RecordingSink>);

}  // namespace webcache::obs
