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
#include <memory>
#include <stdexcept>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
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

/// The admission limit a PolicySpec installs on its cache: LRU-Threshold's
/// size threshold, 0 (unlimited) for every other policy.
inline std::uint64_t admission_limit_of(const cache::PolicySpec& policy) {
  return policy.kind == cache::PolicyKind::kLruThreshold
             ? policy.admission_threshold_bytes
             : 0;
}

}  // namespace detail

/// Runs one policy at one cache size over a densified trace
/// (trace::densify): the cache's object table, the policy's index
/// structures and the last-size tracker are flat arrays indexed by dense
/// id. LRU-Threshold specs additionally install their admission limit on
/// the cache.
SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {});

/// Same, with a caller-constructed policy — the path for policies that need
/// out-of-band state, e.g. the clairvoyant OPT bound built from the trace:
///
///   simulate(dense, capacity,
///            std::make_unique<cache::OptPolicy>(dense.trace.requests),
///            options);
///
/// admission_limit_bytes > 0 installs Cache::set_admission_limit.
SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   std::unique_ptr<cache::ReplacementPolicy> policy,
                   const SimulatorOptions& options = {},
                   std::uint64_t admission_limit_bytes = 0);

/// The most general form: drives any CacheFrontend (a composite cache such
/// as cache::PartitionedCache, or an adapted plain Cache) over the trace.
/// The frontend reserves the trace's dense universe, so pass an empty one
/// (CacheFrontend::reserve_dense_ids throws std::logic_error on a non-empty
/// frontend holding sparse ids).
SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options = {});

/// A trace with arbitrary (e.g. URL-hash) document ids: densify, then the
/// dense overload above. It stays because the benchmark harness
/// (perfbench/wcbench.cpp), the examples and many tests replay a loaded or
/// generated Trace directly; the results are the dense path's.
SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options = {});

// ---- instrumented runs (obs layer) ----
//
// Same replay, with a RecordingSink collecting the windowed time series
// (obs/stats_sink.hpp). The final SimResult is bit-identical to the
// uninstrumented overloads — the sink only observes. The sink's series()
// is valid after return; sinks are reusable (begin_run resets).

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink& sink);

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink& sink);

}  // namespace webcache::sim
