// Cache-size sweep driver: runs a set of policies over a ladder of cache
// sizes expressed as fractions of the trace's overall size — exactly how
// the paper's Figures 2/3 parameterize the x-axis ("Cache sizes are chosen
// from about 0.5% to about 40% of overall trace size").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

/// Whether run_sweep may route LRU columns through the one-pass
/// stack-analysis engine (sim/stack_sweep.hpp) instead of one grid cell per
/// capacity. The fast path is exact — results are bit-identical to the
/// grid. kAuto: every stack-eligible (capacity x LRU) cell takes the
/// one-pass engine and everything else (non-LRU policies, capacities
/// smaller than the largest transfer) falls back to the per-cell grid. The
/// stack pass is one task of the grid's worker pool: the pool starts it
/// first, then the non-LRU cells, then the per-cell LRU cells, so no serial
/// pass precedes the grid. kOff forces the grid everywhere (the
/// differential baseline).
enum class OnePassMode {
  kAuto,
  kOff,
};

/// Whether run_sweep routes LRU columns through the SHARDS-sampled one-pass
/// engine (sim/sampled_sweep.hpp) instead of the exact one. Unlike the
/// one-pass toggle, sampling is an *approximation* — cells carry error
/// estimates — so it is off unless asked for:
///  * kOff: never sample (the default).
///  * kOn: sample LRU columns at sample_rate.
/// Non-LRU columns, fault schedules, and sample_rate == 1.0 always take
/// the exact paths.
enum class SamplingMode {
  kOff,
  kOn,
};

struct SweepConfig {
  /// Cache sizes as fractions of the trace's overall (distinct-document)
  /// size; the paper's ladder by default.
  std::vector<double> cache_fractions = {0.005, 0.01, 0.02, 0.04,
                                         0.08,  0.16, 0.40};
  /// A PolicyKind::kOpt column builds the clairvoyant OPT bound from the
  /// trace for each cell (not under a fault schedule).
  std::vector<cache::PolicySpec> policies;
  SimulatorOptions simulator;
  /// Worker threads for the (fraction x policy) grid. Every cell is an
  /// independent simulation, so results are bit-identical for any thread
  /// count; 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 1;
  /// One-pass LRU fast path (see OnePassMode). Never changes results.
  OnePassMode one_pass = OnePassMode::kAuto;
  /// Fault schedule applied to every grid cell (each cell runs the
  /// fault-aware replay against a fresh single-cache frontend; node 0 is
  /// the whole cache). Non-empty schedules disable the one-pass fast path
  /// — fault replay is strictly sequential. An empty schedule is
  /// bit-identical to not passing one.
  FaultSchedule faults;
  /// SHARDS sampling of LRU columns (see SamplingMode).
  SamplingMode sampling = SamplingMode::kOff;
  /// Sampled fraction of the document space, in (0, 1]. 1.0 is exact and
  /// equivalent to kOff.
  double sample_rate = 0.01;
  /// Seed of the sampling hash; fixed seed => reproducible curves.
  std::uint64_t sample_seed = 0x5348415244530001ULL;
};

/// Per-cell sampling annotation (parallel to SweepPoint::results when the
/// sweep sampled anything; empty otherwise). Exact cells keep sampled ==
/// false and zero errors.
struct CellEstimate {
  bool sampled = false;
  double hit_rate_error = 0.0;
  double byte_hit_rate_error = 0.0;
};

struct SweepPoint {
  double cache_fraction = 0.0;
  std::uint64_t capacity_bytes = 0;
  std::vector<SimResult> results;  // one per policy, config order
  std::vector<CellEstimate> estimates;  // per policy; empty if fully exact
};

struct SweepResult {
  std::uint64_t overall_size_bytes = 0;  // the trace's total distinct bytes
  std::vector<SweepPoint> points;        // ascending cache size
  /// True when any cell was filled by the SHARDS-sampled engine; the rate
  /// and seed then echo the run's sampling parameters.
  bool sampled = false;
  double sample_rate = 0.0;
  std::uint64_t sample_seed = 0;
};

/// Every grid cell runs the dense simulate() overload. Bit-identical for
/// any thread count.
SweepResult run_sweep(const trace::DenseTrace& trace,
                      const SweepConfig& config);

/// A trace with arbitrary document ids: densify, then the dense overload.
/// It stays because the benchmark harness (perfbench/wcbench.cpp) and many
/// tests sweep a loaded or generated Trace directly.
SweepResult run_sweep(const trace::Trace& trace, const SweepConfig& config);

/// Builds a cold composite cache for one grid cell. Called once per
/// (fraction x variant) cell with that cell's capacity in bytes; the sweep
/// replays the trace against the returned frontend from empty.
using FrontendFactory =
    std::function<std::unique_ptr<cache::CacheFrontend>(std::uint64_t)>;

/// Sweep over composite caches (e.g. cache::PartitionedCache shares) that a
/// PolicySpec cannot describe: the grid is (cache fraction x frontend
/// variant) instead of (cache fraction x policy).
struct FrontendSweepConfig {
  std::vector<double> cache_fractions = {0.005, 0.01, 0.02, 0.04,
                                         0.08,  0.16, 0.40};
  /// One column per composite-cache variant, in presentation order.
  std::vector<FrontendFactory> frontends;
  SimulatorOptions simulator;
  /// Worker threads for the grid; 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 1;
  /// Fault schedule applied to every grid cell; node i is fault domain i
  /// of the cell's frontend (a PartitionedCache exposes one domain per
  /// document class). An empty schedule is bit-identical to not passing
  /// one.
  FaultSchedule faults;
};

/// Each cell's frontend reserves the trace's dense universe
/// (CacheFrontend::reserve_dense_ids) before replay. Bit-identical for any
/// thread count, and cell for cell to simulate(trace, frontend) on a fresh
/// frontend.
SweepResult run_sweep(const trace::DenseTrace& trace,
                      const FrontendSweepConfig& config);

}  // namespace webcache::sim
