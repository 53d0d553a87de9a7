// Step-wise core of the replay loops.
//
// simulate() over a DenseTrace (simulator.cpp) and the streamed replay
// (simulate_stream_checkpointed, checkpoint.cpp) both advance a cache
// frontend one request at a time and account the identical SimResult
// fields. ReplayCore is that per-request body factored into begin/step/
// finish form, so a chunked stream drives exactly the same instructions as
// a materialized for-loop — the streamed results are bit-identical by
// construction, not by parallel maintenance of two loops (the
// streaming-equivalence suite then checks the construction, and the
// textbook oracle in tests/support checks the results).
//
// The core keeps no per-document state. The caller hands step() each
// record with its document's previous transfer size: a materialized replay
// walks the trace's previous_sizes column (trace::PreviousSizeCursor), and
// a stream's batch layer derives the pair from its DenseLastSize
// (last_size.hpp).
//
// The Faults parameter follows the sink pattern: the NoFaults
// instantiation compiles the fault-domain checks away entirely, so the
// plain replay is still the pre-fault code path. dispatch_replay() below
// picks the instantiations from an entry point's optional sink and
// schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "cache/cache.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/last_size.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim::detail {

/// Whether a replay loop instantiated with `Sink` records a series (and so
/// brackets the run with begin_run/end_run).
template <typename Sink>
inline constexpr bool kRecordingSink =
    std::is_same_v<std::remove_cvref_t<Sink>, obs::RecordingSink>;

/// Runs `run(sink, faults)` once, with the instantiations an entry point's
/// optional collaborators select: obs::NullSink for a null sink (its hooks
/// compile away), NoFaults for a null schedule (the fault checks compile
/// away), else the RecordingSink and a FaultRun over `fault_nodes` nodes
/// (`has_root`: a hierarchy, whose root and sibling probes the schedule may
/// address).
template <typename Run>
auto dispatch_replay(obs::RecordingSink* sink, const FaultSchedule* schedule,
                     std::uint32_t fault_nodes, bool has_root, Run&& run) {
  const auto with_faults = [&](auto& s) {
    if (schedule == nullptr) {
      NoFaults none;
      return run(s, none);
    }
    FaultRun faults(*schedule, fault_nodes, has_root);
    return run(s, faults);
  };
  if (sink == nullptr) {
    obs::NullSink null;
    return with_faults(null);
  }
  return with_faults(*sink);
}

template <obs::StatsSink Sink, typename Faults>
class ReplayCore {
  static constexpr bool kFaulted = Faults::kEnabled;

 public:
  /// `total_requests` must be the whole run's length (streams know it up
  /// front) — it places the warm-up boundary exactly where a materialized
  /// replay would. `faults` must outlive the core.
  ReplayCore(cache::CacheFrontend& cache, const SimulatorOptions& options,
             Sink& sink, std::uint64_t total_requests, Faults& faults)
      : cache_(cache),
        options_(options),
        sink_(sink),
        faults_(faults) {
    result_.policy_name = cache.description();
    result_.capacity_bytes = cache.capacity_bytes();
    warmup_ = static_cast<std::uint64_t>(std::floor(
        static_cast<double>(total_requests) * options.warmup_fraction));
    result_.warmup_requests = warmup_;
    result_.measured_requests = total_requests - warmup_;
  }

  /// Replays `r`. `previous_size` is the transfer size of the previous
  /// request for r's document; it is read only when r.size_changed.
  void step(const trace::ReplayRecord& r, std::uint64_t previous_size) {
    ++index_;
    const bool measured = index_ > warmup_;
    // The paper's simulator sees only the size recorded in the trace.
    const std::uint64_t size = r.transfer_size;

    if constexpr (kFaulted) {
      faults_.advance(index_,
                       [&](std::uint32_t node, obs::FaultEventKind kind) {
                         if (kind == obs::FaultEventKind::kCrash) {
                           cache_.crash_domain(node);
                         }
                         sink_.on_fault_event(node, kind);
                         ++result_.faults.events_applied;
                       });
      sink_.on_node_state(faults_.up_nodes(), faults_.total_nodes());
    }

    SizeChange change;
    if (r.size_changed) {
      change = classify_size_change(previous_size, size, options_);
    }

    if constexpr (kFaulted) {
      const std::uint32_t node = cache_.fault_domain_of(r.doc_class);
      if (!faults_.node_up(node)) {
        sink_.on_request_lost(r.doc_class, size, measured);
        if (measured) {
          HitCounters& cls =
              result_.per_class[static_cast<std::size_t>(r.doc_class)];
          cls.requests += 1;
          cls.requested_bytes += size;
          result_.overall.requests += 1;
          result_.overall.requested_bytes += size;
          ++result_.faults.lost_requests;
          result_.faults.lost_bytes += size;
          // Trace-side stat; a crashed partition is empty, so the resident-
          // copy modification counter cannot apply.
          if (change.interrupted) result_.interrupted_transfers += 1;
        }
        return;
      }
      const auto outcome =
          cache_.access(r.document, size, r.doc_class, change.modified);
      result_.evictions += outcome.evictions;
      sink_.on_node_access(node, r.doc_class, size,
                           outcome.kind == cache::AccessKind::kHit, measured);
      account(r, size, change, outcome, measured);
    } else {
      const auto outcome =
          cache_.access(r.document, size, r.doc_class, change.modified);
      result_.evictions += outcome.evictions;
      account(r, size, change, outcome, measured);
    }
  }

  SimResult finish() { return std::move(result_); }

  // ---- checkpointing ----
  //
  // The core's own state is just the request index and the accumulating
  // SimResult; warmup_ is recomputed identically from (total_requests,
  // options) on resume.

  std::uint64_t consumed() const { return index_; }
  const SimResult& result() const { return result_; }
  void restore(std::uint64_t index, SimResult result) {
    index_ = index;
    result_ = std::move(result);
  }

 private:
  void account(const trace::ReplayRecord& r, std::uint64_t size,
               const SizeChange& change, const cache::AccessOutcome& outcome,
               bool measured) {
    sink_.on_access(r.doc_class, size, outcome.kind, measured);
    if (!measured) return;
    HitCounters& cls =
        result_.per_class[static_cast<std::size_t>(r.doc_class)];
    cls.requests += 1;
    cls.requested_bytes += size;
    result_.overall.requests += 1;
    result_.overall.requested_bytes += size;
    const double fetch_latency =
        options_.latency_setup_ms +
        static_cast<double>(size) / options_.latency_bytes_per_ms;
    result_.all_miss_latency_ms += fetch_latency;
    switch (outcome.kind) {
      case cache::AccessKind::kHit:
        cls.hits += 1;
        cls.hit_bytes += size;
        result_.overall.hits += 1;
        result_.overall.hit_bytes += size;
        break;
      case cache::AccessKind::kBypass:
        result_.bypasses += 1;
        result_.miss_latency_ms += fetch_latency;
        break;
      case cache::AccessKind::kMiss:
        result_.miss_latency_ms += fetch_latency;
        break;
    }
    if (change.modified && outcome.was_resident) {
      result_.modification_misses += 1;
    }
    if (change.interrupted) result_.interrupted_transfers += 1;
  }

  cache::CacheFrontend& cache_;
  const SimulatorOptions& options_;
  Sink& sink_;
  Faults& faults_;
  SimResult result_;
  std::uint64_t warmup_ = 0;
  std::uint64_t index_ = 0;
};

}  // namespace webcache::sim::detail
