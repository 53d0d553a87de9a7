// Step-wise core of the replay loops.
//
// simulate() (simulator.cpp), the fault-aware simulate() overloads
// (faults.cpp) and the streaming entry points (streaming.cpp) all advance a
// cache frontend one request at a time and account the identical SimResult
// fields. ReplayCore is that per-request body factored into begin/step/
// finish form, so a chunked stream drives exactly the same instructions as
// a materialized for-loop — the streamed results are bit-identical by
// construction, not by parallel maintenance of two loops (the
// streaming-equivalence suite then checks the construction, and the
// textbook oracle in tests/support checks the results). Exactly two loops
// step it: replay_trace() below for densified traces, and run_checkpointed
// (checkpoint.cpp) for streams.
//
// The Faults parameter follows the sink pattern: the NoFaultReplay
// instantiation compiles the fault-domain checks away entirely, so the
// plain replay is still the pre-fault code path.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cache/frontend.hpp"
#include "obs/stats_sink.hpp"
#include "sim/last_size.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim::detail {

/// Tag selecting the fault-free replay (no per-request fault bookkeeping is
/// even compiled in).
struct NoFaultReplay {};

template <typename LastSize, obs::StatsSink Sink,
          typename Faults = NoFaultReplay>
class ReplayCore {
  static constexpr bool kFaulted = !std::is_same_v<Faults, NoFaultReplay>;

 public:
  /// `total_requests` must be the whole run's length (streams know it up
  /// front) — it places the warm-up boundary exactly where a materialized
  /// replay would. `faults` must outlive the core and is ignored by the
  /// NoFaultReplay instantiation.
  ReplayCore(cache::CacheFrontend& cache, const SimulatorOptions& options,
             LastSize& last_size, Sink& sink, std::uint64_t total_requests,
             Faults* faults = nullptr)
      : cache_(cache),
        options_(options),
        last_size_(last_size),
        sink_(sink),
        faults_(faults) {
    result_.policy_name = cache.description();
    result_.capacity_bytes = cache.capacity_bytes();
    warmup_ = static_cast<std::uint64_t>(std::floor(
        static_cast<double>(total_requests) * options.warmup_fraction));
    result_.warmup_requests = warmup_;
    result_.measured_requests = total_requests - warmup_;
  }

  void step(const trace::Request& r) {
    ++index_;
    const bool measured = index_ > warmup_;
    // The paper's simulator sees only the size recorded in the trace.
    const std::uint64_t size = r.transfer_size;

    if constexpr (kFaulted) {
      faults_->advance(index_,
                       [&](std::uint32_t node, obs::FaultEventKind kind) {
                         if (kind == obs::FaultEventKind::kCrash) {
                           cache_.crash_domain(node);
                         }
                         sink_.on_fault_event(node, kind);
                         ++result_.faults.events_applied;
                       });
      sink_.on_node_state(faults_->up_nodes(), faults_->total_nodes());
    }

    SizeChange change;
    if (std::uint64_t* previous = last_size_.lookup(r.document, size)) {
      change = classify_size_change(*previous, size, options_);
      *previous = size;
    }

    if constexpr (kFaulted) {
      const std::uint32_t node = cache_.fault_domain_of(r.doc_class);
      if (!faults_->node_up(node)) {
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
  void account(const trace::Request& r, std::uint64_t size,
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
  LastSize& last_size_;
  Sink& sink_;
  Faults* faults_;
  SimResult result_;
  std::uint64_t warmup_ = 0;
  std::uint64_t index_ = 0;
};

/// The one materialized replay: every simulate() overload over a whole
/// trace (plain, instrumented or fault-aware) is one call to this. It
/// validates the options, reserves the trace's dense universe on the
/// frontend and tracks last sizes in a flat vector. A RecordingSink is
/// bracketed by begin_run/end_run; a NullSink compiles to nothing.
/// `faults` is a FaultRun for fault-aware runs.
template <typename Sink, typename Faults = NoFaultReplay>
SimResult replay_trace(const trace::DenseTrace& trace,
                       cache::CacheFrontend& frontend,
                       const SimulatorOptions& options, Sink&& sink,
                       Faults faults = {}) {
  using SinkT = std::remove_cvref_t<Sink>;
  validate_options(options);
  const std::vector<trace::Request>& requests = trace.trace.requests;
  frontend.reserve_dense_ids(trace.document_count());
  DenseLastSize last_size(trace.document_count());
  if constexpr (std::is_same_v<SinkT, obs::RecordingSink>) {
    sink.begin_run(frontend);
  }
  ReplayCore<DenseLastSize, SinkT, Faults> core(
      frontend, options, last_size, sink, requests.size(), &faults);
  for (const trace::Request& r : requests) core.step(r);
  if constexpr (std::is_same_v<SinkT, obs::RecordingSink>) sink.end_run();
  return core.finish();
}

}  // namespace webcache::sim::detail
