#include "sim/sweep.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cache/cache.hpp"
#include "cache/greedy_dual.hpp"
#include "sim/sampled_sweep.hpp"
#include "util/parallel.hpp"

namespace webcache::sim {

namespace {

// Lays out the (fraction x column) grid: capacities from fractions of the
// trace's overall size, one empty SimResult per cell.
SweepResult layout_grid(std::uint64_t overall_size_bytes,
                        const std::vector<double>& fractions,
                        std::size_t columns) {
  if (fractions.empty()) {
    throw std::invalid_argument("run_sweep: no cache fractions configured");
  }

  SweepResult sweep;
  sweep.overall_size_bytes = overall_size_bytes;
  for (const double fraction : fractions) {
    SweepPoint point;
    point.cache_fraction = fraction;
    point.capacity_bytes = static_cast<std::uint64_t>(std::round(fraction_bytes(
        "run_sweep: cache fraction", fraction, overall_size_bytes)));
    if (point.capacity_bytes == 0) point.capacity_bytes = 1;
    point.results.resize(columns);
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

// The cells of a grid that still have to run, in the order the pool starts
// them: row-major (smallest cache first), except that the cells of
// `late_columns` come after all others. A cell marked in `skip` is filled
// elsewhere; an empty mask marks nothing.
std::vector<std::size_t> pending_cells(
    std::size_t rows, std::size_t columns, const std::vector<char>& skip,
    const std::vector<std::size_t>& late_columns) {
  std::vector<char> late(columns, 0);
  for (const std::size_t p : late_columns) late[p] = 1;
  std::vector<std::size_t> pending;
  pending.reserve(rows * columns);
  for (const char late_pass : {0, 1}) {
    for (std::size_t cell = 0; cell < rows * columns; ++cell) {
      if (late[cell % columns] == late_pass &&
          (skip.empty() || skip[cell] == 0)) {
        pending.push_back(cell);
      }
    }
  }
  return pending;
}

// The plain-LRU columns: the ones the sampled engine can fill, and the
// cheapest cells of the grid (a heap-policy cell costs 2-5x an LRU cell).
std::vector<std::size_t> lru_columns_of(const SweepConfig& config) {
  std::vector<std::size_t> lru;
  for (std::size_t p = 0; p < config.policies.size(); ++p) {
    if (config.policies[p].kind == cache::PolicyKind::kLru) lru.push_back(p);
  }
  return lru;
}

// Whether this sweep routes its LRU columns through the SHARDS-sampled
// engine instead of the exact grid (see SamplingMode).
bool sampling_engaged(const SweepConfig& config) {
  return config.sampling == SamplingMode::kOn && config.sample_rate < 1.0;
}

// SHARDS-sampled fill of every (capacity x LRU) cell in one pass; returns
// the mask of the cells it filled and records per-cell error estimates. The
// sampled engine has no largest-transfer precondition, so every row's LRU
// cell is covered — non-LRU columns stay on the exact grid.
std::vector<char> apply_sampling(const trace::DenseTrace& trace,
                                 const SweepConfig& config,
                                 SweepResult& sweep) {
  const std::size_t columns = config.policies.size();
  std::vector<char> skip(sweep.points.size() * columns, 0);

  const std::vector<std::size_t> lru_columns = lru_columns_of(config);
  if (lru_columns.empty()) return skip;

  SampledSweepConfig sampled;
  for (const SweepPoint& point : sweep.points) {
    sampled.capacities.push_back(point.capacity_bytes);
  }
  sampled.simulator = config.simulator;
  sampled.sample_rate = config.sample_rate;
  sampled.hash_seed = config.sample_seed;
  const SampledCurve curve = SampledSweep(std::move(sampled)).run(trace);

  for (SweepPoint& point : sweep.points) point.estimates.resize(columns);
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    for (const std::size_t p : lru_columns) {
      sweep.points[f].results[p] = curve.results[f];
      CellEstimate& est = sweep.points[f].estimates[p];
      est.sampled = true;
      est.hit_rate_error = curve.points[f].hit_rate_error;
      est.byte_hit_rate_error = curve.points[f].byte_hit_rate_error;
      skip[f * columns + p] = 1;
    }
  }
  sweep.sampled = true;
  sweep.sample_rate = config.sample_rate;
  sweep.sample_seed = config.sample_seed;
  return skip;
}

void validate_config(const SweepConfig& config) {
  if (config.policies.empty()) {
    throw std::invalid_argument("run_sweep: no policies configured");
  }
  // Checked whenever sampling is on, not only where the sampled engine
  // runs: a NaN or a rate above 1 would otherwise fall through to the exact
  // grid unnoticed.
  if (config.sampling == SamplingMode::kOn &&
      !(config.sample_rate > 0.0 && config.sample_rate <= 1.0)) {
    throw std::invalid_argument(
        "run_sweep: --sample-rate must be in (0, 1] with sampling on (got " +
        std::to_string(config.sample_rate) + ")");
  }
}

}  // namespace

SweepResult run_sweep(const trace::DenseTrace& trace,
                      const SweepConfig& config) {
  validate_config(config);
  const std::size_t columns = config.policies.size();
  SweepResult sweep = layout_grid(trace.overall_size_bytes(),
                                  config.cache_fractions, columns);

  // Sampled LRU cells are filled before the grid runs. The grid runs each
  // remaining cell on one worker pool that starts the other policies' cells
  // first, then the exact LRU cells. Each task writes only its own cell and
  // every cell is an independent simulation, so results are bit-identical
  // for any thread count.
  const std::vector<char> skip = sampling_engaged(config)
                                     ? apply_sampling(trace, config, sweep)
                                     : std::vector<char>{};
  const std::vector<std::size_t> pending = pending_cells(
      sweep.points.size(), columns, skip, lru_columns_of(config));
  util::parallel_for(pending.size(), config.threads, [&](std::size_t i) {
    const cache::PolicySpec& spec = config.policies[pending[i] % columns];
    SweepPoint& point = sweep.points[pending[i] / columns];
    SimResult& cell = point.results[pending[i] % columns];
    if (spec.kind == cache::PolicyKind::kOpt) {
      // OPT's oracle is the future of this very trace.
      cache::Cache opt(point.capacity_bytes,
                       std::make_unique<cache::OptPolicy>(trace));
      cell = simulate(trace, opt, config.simulator);
    } else {
      cell = simulate(trace, point.capacity_bytes, spec, config.simulator);
    }
  });
  return sweep;
}

SweepResult run_sweep(const trace::Trace& trace, const SweepConfig& config) {
  return run_sweep(trace::densify(trace), config);
}

}  // namespace webcache::sim
