// Deterministic fault injection for the cache mesh.
//
// A FaultSchedule is a list of timed node events — edge crash (contents
// lost, node down), edge recovery (cold restart), root outage/recovery,
// and probe-path degradation (sibling probes to a node time out, with
// bounded retry). Events are keyed by 1-based trace request index and
// applied immediately before that request enters the replay loop, so a run
// is a pure function of (trace, config, schedule): reproducible, and
// resumable from any request index by replaying the schedule prefix.
//
// Routing under faults (hierarchy):
//  * designated edge down  -> fail over to the siblings (when cooperation
//    is on; down siblings are skipped, degraded ones may time out), then to
//    the root; nothing is replicated at the dead edge;
//  * root down             -> edge misses are served straight from the
//    origin and still warm the edge cache;
//  * edge AND root down    -> the request is LOST (counted in the request
//    totals, never as a hit).
// A partitioned cache maps node i to document-class partition i; a down
// partition has no failover path inside one box, so its requests are lost.
//
// Probe timeouts are deterministic: a hash of (seed, request index,
// sibling, attempt) against probe_timeout_rate decides each attempt, and a
// sibling is skipped only after 1 + max_probe_retries attempts all time
// out.
//
// A single frontend (simulate, simulate_stream_checkpointed) is a set of
// fault domains (CacheFrontend::fault_domains): one for a plain Cache, one
// per document-class partition for a PartitionedCache, so node i is the
// partition of class i. A crash drops the domain's contents; while down,
// its requests are lost (a single box has no failover path) and excluded
// from the latency model. Root and probe events are rejected there.
//
// Each engine takes an optional schedule (the trailing `const
// FaultSchedule*` of simulate and simulate_hierarchy,
// StreamCheckpointJob::faults); with an empty schedule the run is
// bit-identical to one without (tests/sim/fault_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/stats_sink.hpp"

namespace webcache::sim {

enum class FaultKind : std::uint8_t {
  kEdgeCrash,     // edge node fails: contents lost, node down
  kEdgeRecover,   // edge node restarts cold
  kRootOutage,    // root unreachable (its contents are lost with it)
  kRootRecover,   // root restarts cold
  kProbeDegrade,  // sibling probes to the node start timing out
  kProbeRestore,  // probe path to the node healthy again
};

/// The schedule-file keyword for a kind ("edge-crash", ...).
const char* to_string(FaultKind kind);

struct FaultEvent {
  /// 1-based trace request index; the event is applied immediately before
  /// this request. Indices past the end of the trace simply never fire.
  std::uint64_t at_request = 0;
  FaultKind kind = FaultKind::kEdgeCrash;
  /// Edge index (or partition/document-class index); ignored by root
  /// events.
  std::uint32_t node = 0;
};

/// A complete fault scenario. Events need not be pre-sorted; FaultRun
/// orders them (stably, so same-index events keep file order).
struct FaultSchedule {
  std::vector<FaultEvent> events;
  /// Retries after the first timed-out probe attempt: a degraded sibling
  /// is given 1 + max_probe_retries attempts per request.
  std::uint32_t max_probe_retries = 1;
  /// Probability that one probe attempt to a degraded sibling times out
  /// (1.0 = degraded siblings are unreachable; must be in [0, 1]).
  double probe_timeout_rate = 1.0;
  /// Seed for the deterministic probe-timeout hash.
  std::uint64_t seed = 0;

  bool empty() const { return events.empty(); }
};

/// Parses the text schedule format:
///
///   # comment                     (also trailing, after '#')
///   max-probe-retries 2           (directives, any order)
///   probe-timeout-rate 0.75
///   seed 42
///   500  edge-crash 0             (<at_request> <kind> [node])
///   800  edge-recover 0
///   1000 root-outage              (root events take no node)
///   1200 root-recover
///   600  probe-degrade 1
///   700  probe-restore 1
///
/// Malformed lines throw std::invalid_argument naming the line number and
/// reason.
FaultSchedule parse_fault_schedule(std::istream& in);

/// Loads and parses a schedule file (std::runtime_error if unreadable).
FaultSchedule load_fault_schedule_file(const std::string& path);

namespace detail {

// SplitMix64 finalizer — the same mixer the edge-assignment hash uses.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// Stand-in for FaultRun on runs without a schedule: kEnabled folds every
/// fault branch away under `if constexpr`, and the constant node queries
/// let shared conditions ("edge_up && ...") optimize out. A loop
/// instantiated with NoFaults therefore IS the pre-fault loop, bit-identical
/// by construction (tests/sim/fault_equivalence_test.cpp then pins the
/// FaultRun instantiation with an empty schedule to the same output).
struct NoFaults {
  static constexpr bool kEnabled = false;
  static constexpr bool node_up(std::uint32_t) { return true; }
  static constexpr bool root_up() { return true; }
  static constexpr bool degraded(std::uint32_t) { return false; }
};

/// The runtime state machine a fault-aware replay loop drives: the sorted
/// schedule plus per-node up/degraded state. Construction validates the
/// schedule against the mesh shape (node indices in range; root and probe
/// events only where a root exists — a partitioned run has neither root
/// nor siblings) and throws std::invalid_argument otherwise.
class FaultRun {
 public:
  /// Replay loops select fault handling with `if constexpr` on this.
  static constexpr bool kEnabled = true;

  FaultRun(const FaultSchedule& schedule, std::uint32_t node_count,
           bool has_root);

  /// Applies every event scheduled at or before request `index` (1-based).
  /// No-op events (crashing a down node, recovering an up one, degrading a
  /// degraded one) are skipped silently; for each state-changing event,
  /// after the state flips, on_apply(node, obs::FaultEventKind) fires with
  /// node == obs::kRootNode for root events. The caller owns the caches and
  /// performs the actual Cache::crash() on kCrash.
  template <typename Fn>
  void advance(std::uint64_t index, Fn&& on_apply) {
    while (cursor_ < events_.size() && events_[cursor_].at_request <= index) {
      apply(events_[cursor_++], on_apply);
    }
  }

  bool node_up(std::uint32_t node) const { return node_up_[node] != 0; }
  bool root_up() const { return root_up_; }
  bool degraded(std::uint32_t node) const { return degraded_[node] != 0; }

  /// Mesh nodes currently up / in total (root included when present);
  /// feeds the availability metric.
  std::uint32_t up_nodes() const {
    return up_count_ + ((has_root_ && root_up_) ? 1u : 0u);
  }
  std::uint32_t total_nodes() const {
    return node_count_ + (has_root_ ? 1u : 0u);
  }

  /// Probe attempts a degraded sibling is given per request.
  std::uint32_t max_probe_attempts() const { return 1 + max_probe_retries_; }

  /// Whether one probe attempt times out — a pure function of
  /// (seed, request index, sibling, attempt), so runs are reproducible and
  /// resumable regardless of how requests interleave.
  bool probe_times_out(std::uint64_t index, std::uint32_t sibling,
                       std::uint32_t attempt) const {
    if (probe_timeout_rate_ >= 1.0) return true;
    if (probe_timeout_rate_ <= 0.0) return false;
    std::uint64_t h = detail::mix64(seed_ ^ detail::mix64(index));
    h = detail::mix64(h ^ ((static_cast<std::uint64_t>(sibling) << 32) |
                           attempt));
    // 53-bit mantissa -> uniform double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53 < probe_timeout_rate_;
  }

 private:
  template <typename Fn>
  void apply(const FaultEvent& ev, Fn&& on_apply) {
    switch (ev.kind) {
      case FaultKind::kEdgeCrash:
        if (node_up_[ev.node] == 0) return;
        node_up_[ev.node] = 0;
        --up_count_;
        on_apply(ev.node, obs::FaultEventKind::kCrash);
        return;
      case FaultKind::kEdgeRecover:
        if (node_up_[ev.node] != 0) return;
        node_up_[ev.node] = 1;
        ++up_count_;
        on_apply(ev.node, obs::FaultEventKind::kRecovery);
        return;
      case FaultKind::kRootOutage:
        if (!root_up_) return;
        root_up_ = false;
        on_apply(obs::kRootNode, obs::FaultEventKind::kCrash);
        return;
      case FaultKind::kRootRecover:
        if (root_up_) return;
        root_up_ = true;
        on_apply(obs::kRootNode, obs::FaultEventKind::kRecovery);
        return;
      case FaultKind::kProbeDegrade:
        if (degraded_[ev.node] != 0) return;
        degraded_[ev.node] = 1;
        on_apply(ev.node, obs::FaultEventKind::kDegrade);
        return;
      case FaultKind::kProbeRestore:
        if (degraded_[ev.node] == 0) return;
        degraded_[ev.node] = 0;
        on_apply(ev.node, obs::FaultEventKind::kRestore);
        return;
    }
  }

  std::vector<FaultEvent> events_;  // sorted by at_request (stable)
  std::size_t cursor_ = 0;
  std::uint32_t node_count_;
  bool has_root_;
  bool root_up_ = true;
  std::uint32_t up_count_;
  std::uint32_t max_probe_retries_;
  double probe_timeout_rate_;
  std::uint64_t seed_;
  // uint8_t, not bool: vector<bool> proxies cost on the per-request path.
  std::vector<std::uint8_t> node_up_;
  std::vector<std::uint8_t> degraded_;
};

}  // namespace webcache::sim
