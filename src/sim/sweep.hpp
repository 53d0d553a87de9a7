// Cache-size sweep driver: runs a set of policies over a ladder of cache
// sizes expressed as fractions of the trace's overall size — exactly how
// the paper's Figures 2/3 parameterize the x-axis ("Cache sizes are chosen
// from about 0.5% to about 40% of overall trace size"). Every exact cell,
// LRU included, is one simulate() replay of the grid; the cells run on one
// worker pool.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

/// A single-value enum with nothing left to select: every exact cell is a
/// grid cell. Kept only because the benchmark harness
/// (perfbench/wcbench.cpp) still assigns OnePassMode::kOff.
enum class OnePassMode {
  kOff,
};

/// Whether run_sweep routes LRU columns through the SHARDS-sampled one-pass
/// engine (sim/sampled_sweep.hpp) instead of the exact grid. Sampling is
/// an *approximation* — cells carry error estimates — so it is off unless
/// asked for:
///  * kOff: never sample (the default).
///  * kOn: sample LRU columns at sample_rate.
/// Non-LRU columns and sample_rate == 1.0 always take the exact grid.
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
  /// trace for each cell.
  std::vector<cache::PolicySpec> policies;
  SimulatorOptions simulator;
  /// Worker threads for the (fraction x policy) grid. Every cell is an
  /// independent simulation, so results are bit-identical for any thread
  /// count; 0 = std::thread::hardware_concurrency().
  std::uint32_t threads = 1;
  /// Fixed at kOff and read by nothing in the library; it exists so the
  /// benchmark harness, which assigns it, keeps compiling.
  OnePassMode one_pass = OnePassMode::kOff;
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

/// Every exact cell runs the dense simulate() overload on the grid's pool.
/// Bit-identical for any thread count. Throws std::invalid_argument on no
/// policies, no fractions, or a fraction that is not finite and > 0 or
/// whose capacity overflows 64-bit bytes.
SweepResult run_sweep(const trace::DenseTrace& trace,
                      const SweepConfig& config);

/// A trace with arbitrary document ids: densify, then the dense overload.
/// It stays because the benchmark harness (perfbench/wcbench.cpp) and many
/// tests sweep a loaded or generated Trace directly.
SweepResult run_sweep(const trace::Trace& trace, const SweepConfig& config);

}  // namespace webcache::sim
