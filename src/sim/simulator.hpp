// Trace-driven simulator of a single caching proxy (paper, Section 4.1).
//
// Faithful to the paper's methodology:
//  * the first warmup_fraction of the requests fill the cache and are
//    excluded from all statistics ("we use 10% of the total requests
//    recorded in a trace to fill the cache");
//  * per document, the size recorded in the trace is tracked across
//    successive requests: a change of less than modification_threshold is a
//    *document modification* and counts as a miss (the resident copy is
//    invalidated), a larger change is an *interrupted transfer* and leaves
//    the resident copy valid. The kAnyChange rule reproduces the treatment
//    of Jin & Bestavros instead (every size change is a modification) for
//    the ablation benchmark;
//  * hit rate and byte hit rate are accounted per document type.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/metrics.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

enum class ModificationRule {
  /// < threshold relative size change => modification; >= => interruption.
  kThreshold,
  /// Any size change is a modification ([7], [8]'s treatment; ablation).
  kAnyChange,
  /// Size changes never invalidate (lower bound; ablation).
  kNever,
};

/// A single-value enum with nothing left to select: every replay runs the
/// one virtual CacheFrontend engine. Kept only because the benchmark
/// harness (perfbench/wcbench.cpp) still names KernelMode::kOff.
enum class KernelMode : std::uint8_t { kOff };

struct SimulatorOptions {
  double warmup_fraction = 0.10;
  ModificationRule modification_rule = ModificationRule::kThreshold;
  double modification_threshold = 0.05;

  /// Origin-fetch latency model used for the SimResult latency metrics
  /// (setup plus transfer at fixed bandwidth; matches LatencyCostModel's
  /// defaults). Accounting only — it never influences replacement.
  double latency_setup_ms = 150.0;
  double latency_bytes_per_ms = 400.0;

  /// Fixed at kOff and read by nothing in the library; it exists so the
  /// benchmark harness, which assigns it, keeps compiling.
  KernelMode kernel = KernelMode::kOff;
};

namespace detail {

/// Shared option validation for every replay entry point.
inline void validate_options(const SimulatorOptions& options) {
  if (options.warmup_fraction < 0.0 || options.warmup_fraction >= 1.0) {
    throw std::invalid_argument("simulate: warmup_fraction out of [0, 1)");
  }
  if (options.modification_threshold <= 0.0 ||
      options.modification_threshold >= 1.0) {
    throw std::invalid_argument(
        "simulate: modification_threshold out of (0, 1)");
  }
}

}  // namespace detail

struct FaultSchedule;  // sim/faults.hpp

/// The materialized replay: drives any CacheFrontend (a cache::Cache, or a
/// composite such as cache::PartitionedCache) over a densified trace
/// (trace::densify). The frontend reserves the trace's dense universe, so
/// pass an empty one (CacheFrontend::reserve_dense_ids throws
/// std::logic_error on a non-empty frontend holding sparse ids); its
/// object table and its policy's index structures are then flat arrays,
/// and size changes come from the trace's previous_sizes column (a
/// std::logic_error if it does not match the records' flags). A policy
/// that needs out-of-band state, e.g. the clairvoyant OPT bound built from
/// the trace, rides in a caller-built Cache:
///
///   cache::Cache opt(capacity, std::make_unique<cache::OptPolicy>(dense));
///   simulate(dense, opt, options);
///
/// `sink` (optional) collects the windowed time series
/// (obs/stats_sink.hpp); the SimResult is bit-identical without it, and
/// the sink's series() is valid after return (sinks are reusable:
/// begin_run resets). `faults` (optional) replays a schedule against the
/// frontend's fault domains (sim/faults.hpp).
SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options = {},
                   obs::RecordingSink* sink = nullptr,
                   const FaultSchedule* faults = nullptr);

/// One policy at one cache size: the frontend form above on a fresh
/// cache::Cache(capacity_bytes, make_policy(policy)).
SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {},
                   obs::RecordingSink* sink = nullptr,
                   const FaultSchedule* faults = nullptr);

/// A trace with arbitrary (e.g. URL-hash) document ids: densify, then the
/// dense overload above. It stays because the benchmark harness
/// (perfbench/wcbench.cpp), the examples and many tests replay a loaded or
/// generated Trace directly; the results are the dense path's.
SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {});

}  // namespace webcache::sim
