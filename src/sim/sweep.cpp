#include "sim/sweep.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "cache/cache.hpp"
#include "cache/opt.hpp"
#include "sim/sampled_sweep.hpp"
#include "sim/stack_sweep.hpp"
#include "util/parallel.hpp"

namespace webcache::sim {

namespace {

using CellRunner =
    std::function<SimResult(std::uint64_t capacity_bytes, std::size_t column)>;

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
    if (fraction <= 0.0) {
      throw std::invalid_argument("run_sweep: cache fraction must be > 0");
    }
    SweepPoint point;
    point.cache_fraction = fraction;
    point.capacity_bytes = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(sweep.overall_size_bytes) * fraction));
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

// Runs `lead` (when set) and then run_cell(capacity, column) for every
// pending cell, either inline or on one worker pool that starts tasks in
// that order. Each task writes only its own cells and every cell is an
// independent simulation, so results are bit-identical for any thread
// count.
void fill_grid(SweepResult& sweep, std::size_t columns,
               std::uint32_t config_threads,
               const std::vector<std::size_t>& pending,
               const CellRunner& run_cell,
               const std::function<void()>& lead = {}) {
  const std::size_t leads = lead ? 1 : 0;
  util::parallel_for(
      leads + pending.size(), config_threads, [&](std::size_t i) {
        if (i < leads) {
          lead();
          return;
        }
        const std::size_t cell = pending[i - leads];
        const std::size_t p = cell % columns;
        const std::size_t f = cell / columns;
        sweep.points[f].results[p] =
            run_cell(sweep.points[f].capacity_bytes, p);
      });
}

// The plain-LRU columns: the ones a one-pass engine can fill, and the
// cheapest cells of the grid (a heap-policy cell costs 2-5x an LRU cell).
std::vector<std::size_t> lru_columns_of(const SweepConfig& config) {
  std::vector<std::size_t> lru;
  for (std::size_t p = 0; p < config.policies.size(); ++p) {
    if (config.policies[p].kind == cache::PolicyKind::kLru) lru.push_back(p);
  }
  return lru;
}

// The cells a one-pass engine fills (the skip mask for fill_grid) and, for
// the exact engine, the pass that fills them; fill_grid runs it as its
// first task, beside the grid cells. The sampled engine has already run.
struct OnePassPlan {
  std::vector<char> skip;
  std::function<void()> run;
};

// One-pass LRU fast path: plans one StackSweep pass over every
// stack-eligible (capacity x LRU policy) cell. Eligibility mirrors
// StackSweep's exactness preconditions — plain-LRU column, capacity at
// least the largest transfer size — so the pass's cells are bit-identical
// to what the grid would have computed; everything else stays on the grid.
// The StackSweep is built here, so its option checks throw before any cell
// runs.
OnePassPlan plan_one_pass(const trace::DenseTrace& trace,
                          const SweepConfig& config, SweepResult& sweep) {
  const std::size_t columns = config.policies.size();
  OnePassPlan plan{std::vector<char>(sweep.points.size() * columns, 0), {}};
  if (config.one_pass == OnePassMode::kOff) return plan;

  const std::vector<std::size_t> lru_columns = lru_columns_of(config);
  if (lru_columns.empty()) return plan;

  const std::uint64_t largest = trace.max_transfer_size();
  std::vector<std::uint64_t> capacities;
  std::vector<std::size_t> rows;
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    if (sweep.points[f].capacity_bytes >= largest) {
      capacities.push_back(sweep.points[f].capacity_bytes);
      rows.push_back(f);
    }
  }
  if (capacities.empty()) return plan;

  for (const std::size_t f : rows) {
    for (const std::size_t p : lru_columns) plan.skip[f * columns + p] = 1;
  }
  plan.run = [&trace, &sweep, rows, lru_columns,
              stack = StackSweep(std::move(capacities), config.simulator)] {
    const std::vector<SimResult> results = stack.run(trace);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (const std::size_t p : lru_columns) {
        sweep.points[rows[i]].results[p] = results[i];
      }
    }
  };
  return plan;
}

// Whether this sweep routes its LRU columns through the SHARDS-sampled
// engine instead of the exact one (see SamplingMode).
bool sampling_engaged(const SweepConfig& config) {
  return config.sampling == SamplingMode::kOn && config.sample_rate < 1.0 &&
         config.faults.empty();
}

// SHARDS-sampled fill of every (capacity x LRU) cell in one pass; returns
// the skip mask for fill_grid and records per-cell error estimates. The
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

void validate_policies(const SweepConfig& config) {
  if (config.policies.empty()) {
    throw std::invalid_argument("run_sweep: no policies configured");
  }
}

}  // namespace

SweepResult run_sweep(const trace::DenseTrace& trace,
                      const SweepConfig& config) {
  validate_policies(config);
  const std::size_t columns = config.policies.size();
  SweepResult sweep = layout_grid(trace.overall_size_bytes(),
                                  config.cache_fractions, columns);

  // Fault-aware sweep: every cell replays the schedule against a fresh
  // cache (node 0 = the whole cache). Fault replay is strictly sequential,
  // so the one-pass fast path is off; the grid itself still parallelizes
  // across cells.
  if (!config.faults.empty()) {
    for (const cache::PolicySpec& spec : config.policies) {
      if (spec.kind == cache::PolicyKind::kOpt) {
        throw std::invalid_argument(
            "run_sweep: OPT cannot replay a fault schedule (its oracle "
            "assumes every request reaches the cache)");
      }
    }
    fill_grid(sweep, columns, config.threads,
              pending_cells(sweep.points.size(), columns, {},
                            lru_columns_of(config)),
              [&](std::uint64_t capacity, std::size_t p) {
                cache::Cache cache(capacity,
                                   cache::make_policy(config.policies[p]));
                return simulate(trace, cache, config.simulator, nullptr,
                                &config.faults);
              });
    return sweep;
  }

  // Sampling replaces the exact stack pass for LRU columns when engaged;
  // the two never mix on one sweep (exact cells would sit next to
  // approximate ones in the same column). The pool starts the stack pass
  // first, then the other policies' cells, then the per-cell LRU cells.
  const OnePassPlan plan =
      sampling_engaged(config)
          ? OnePassPlan{apply_sampling(trace, config, sweep), {}}
          : plan_one_pass(trace, config, sweep);

  fill_grid(sweep, columns, config.threads,
            pending_cells(sweep.points.size(), columns, plan.skip,
                          lru_columns_of(config)),
            [&](std::uint64_t capacity, std::size_t p) {
              const cache::PolicySpec& spec = config.policies[p];
              if (spec.kind == cache::PolicyKind::kOpt) {
                // OPT's oracle is the future of this very trace.
                cache::Cache opt(capacity,
                                 std::make_unique<cache::OptPolicy>(trace));
                return simulate(trace, opt, config.simulator);
              }
              return simulate(trace, capacity, spec, config.simulator);
            },
            plan.run);
  return sweep;
}

SweepResult run_sweep(const trace::Trace& trace, const SweepConfig& config) {
  return run_sweep(trace::densify(trace), config);
}

}  // namespace webcache::sim
