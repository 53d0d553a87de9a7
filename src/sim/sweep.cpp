#include "sim/sweep.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/sampled_sweep.hpp"
#include "sim/sharded_replay.hpp"
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

// Fills every cell not marked in `skip` with run_cell(capacity, column),
// either inline or on a worker pool. Every cell is an independent
// simulation, so results are bit-identical for any thread count.
void fill_grid(SweepResult& sweep, std::size_t columns,
               std::uint32_t config_threads, const std::vector<char>& skip,
               const CellRunner& run_cell) {
  std::vector<std::size_t> pending;
  pending.reserve(sweep.points.size() * columns);
  for (std::size_t cell = 0; cell < sweep.points.size() * columns; ++cell) {
    if (skip.empty() || skip[cell] == 0) pending.push_back(cell);
  }

  auto fill_cell = [&](std::size_t cell) {
    const std::size_t p = cell % columns;
    const std::size_t f = cell / columns;
    sweep.points[f].results[p] =
        run_cell(sweep.points[f].capacity_bytes, p);
  };

  std::uint32_t threads = config_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, pending.size()));

  if (threads <= 1) {
    for (const std::size_t cell : pending) fill_cell(cell);
    return;
  }

  // Workers must never let an exception escape (std::terminate); the first
  // captured failure is rethrown on the calling thread after the join.
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::uint32_t w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < pending.size();
             i = next.fetch_add(1)) {
          fill_cell(pending[i]);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
        // Drain the remaining cells so sibling workers finish promptly.
        next.store(pending.size());
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
}

const trace::Trace& raw_trace(const trace::Trace& trace) { return trace; }
const trace::Trace& raw_trace(const trace::DenseTrace& trace) {
  return trace.trace;
}

// One-pass LRU fast path: fills every stack-eligible (capacity x LRU
// policy) cell from a single StackSweep pass and returns the skip mask for
// fill_grid. Eligibility mirrors StackSweep's exactness preconditions —
// stack-safe options, plain-LRU column, capacity at least the largest
// transfer size — so the prefilled cells are bit-identical to what the
// grid would have computed; everything else stays on the grid.
template <typename TraceT>
std::vector<char> apply_one_pass(const TraceT& trace,
                                 const SweepConfig& config,
                                 SweepResult& sweep) {
  const std::size_t columns = config.policies.size();
  std::vector<char> skip(sweep.points.size() * columns, 0);
  if (config.one_pass == OnePassMode::kOff) return skip;
  if (!StackSweep::options_stack_safe(config.simulator)) return skip;

  std::vector<std::size_t> lru_columns;
  for (std::size_t p = 0; p < columns; ++p) {
    if (config.policies[p].kind == cache::PolicyKind::kLru) {
      lru_columns.push_back(p);
    }
  }
  if (lru_columns.empty()) return skip;

  const std::uint64_t largest =
      StackSweep::max_transfer_size(raw_trace(trace));
  std::vector<std::uint64_t> capacities;
  std::vector<std::size_t> rows;
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    if (sweep.points[f].capacity_bytes >= largest) {
      capacities.push_back(sweep.points[f].capacity_bytes);
      rows.push_back(f);
    }
  }
  if (capacities.empty()) return skip;

  const StackSweep stack(std::move(capacities), config.simulator);
  const std::vector<SimResult> results = stack.run(trace);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const std::size_t p : lru_columns) {
      sweep.points[rows[i]].results[p] = results[i];
      skip[rows[i] * columns + p] = 1;
    }
  }
  return skip;
}

// Whether this sweep routes its LRU columns through the SHARDS-sampled
// engine instead of the exact one (see SamplingMode). kAuto compares the
// exact engine's estimated footprint against the configured budget.
bool sampling_engaged(const SweepConfig& config,
                      std::uint64_t total_requests) {
  if (config.sampling == SamplingMode::kOff) return false;
  if (config.sample_rate >= 1.0) return false;
  if (!config.faults.empty()) return false;
  if (!StackSweep::options_stack_safe(config.simulator)) return false;
  if (config.sampling == SamplingMode::kOn) return true;
  return config.sample_memory_budget_bytes > 0 &&
         SampledSweep::estimated_exact_footprint_bytes(total_requests) >
             config.sample_memory_budget_bytes;
}

// SHARDS-sampled fill of every (capacity x LRU) cell in one pass; returns
// the skip mask for fill_grid and records per-cell error estimates. The
// sampled engine has no largest-transfer precondition, so every row's LRU
// cell is covered — non-LRU columns stay on the exact grid.
template <typename TraceT>
std::vector<char> apply_sampling(const TraceT& trace,
                                 const SweepConfig& config,
                                 SweepResult& sweep) {
  const std::size_t columns = config.policies.size();
  std::vector<char> skip(sweep.points.size() * columns, 0);

  std::vector<std::size_t> lru_columns;
  for (std::size_t p = 0; p < columns; ++p) {
    if (config.policies[p].kind == cache::PolicyKind::kLru) {
      lru_columns.push_back(p);
    }
  }
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

void validate_frontends(const FrontendSweepConfig& config) {
  if (config.frontends.empty()) {
    throw std::invalid_argument("run_sweep: no frontends configured");
  }
  for (const FrontendFactory& factory : config.frontends) {
    if (!factory) {
      throw std::invalid_argument("run_sweep: null frontend factory");
    }
  }
}

std::unique_ptr<cache::CacheFrontend> build_frontend(
    const FrontendSweepConfig& config, std::size_t column,
    std::uint64_t capacity) {
  std::unique_ptr<cache::CacheFrontend> frontend =
      config.frontends[column](capacity);
  if (!frontend) {
    throw std::invalid_argument("run_sweep: frontend factory returned null");
  }
  return frontend;
}

template <typename TraceT>
SweepResult run_policy_sweep(const TraceT& trace, const SweepConfig& config) {
  validate_policies(config);
  const std::size_t columns = config.policies.size();
  SweepResult sweep = layout_grid(trace.overall_size_bytes(),
                                  config.cache_fractions, columns);

  // Fault-aware sweep: every cell replays the schedule against a fresh
  // single-cache frontend (node 0 = the whole cache). Fault replay is
  // strictly sequential, so the one-pass and sharded fast paths are off;
  // the grid itself still parallelizes across cells.
  if (!config.faults.empty()) {
    fill_grid(sweep, columns, config.threads, {},
              [&](std::uint64_t capacity, std::size_t p) {
                const cache::PolicySpec& spec = config.policies[p];
                cache::SingleCacheFrontend frontend(
                    capacity, cache::make_policy(spec),
                    detail::admission_limit_of(spec));
                return simulate(trace, frontend, config.simulator,
                                config.faults);
              });
    return sweep;
  }

  // Sampling replaces the exact one-pass prefill for LRU columns when
  // engaged; the two never mix on one sweep (exact cells would sit next to
  // approximate ones in the same column).
  const std::vector<char> skip =
      sampling_engaged(config, raw_trace(trace).requests.size())
          ? apply_sampling(trace, config, sweep)
          : apply_one_pass(trace, config, sweep);

  // Leftover-thread routing: when the grid has fewer pending cells than
  // worker threads, the spare threads move inside the cells through the
  // sharded replay engine. Only exact-eligible cells take the sharded
  // path, so the sweep stays bit-identical to the serial grid.
  std::size_t pending = 0;
  for (const char s : skip) {
    if (s == 0) ++pending;
  }
  const std::uint32_t resolved = util::resolve_threads(config.threads);
  const std::uint32_t per_cell_threads =
      pending > 0 ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                        resolved / pending, 0xffffffffu))
                  : 0;

  fill_grid(sweep, columns, config.threads, skip,
            [&](std::uint64_t capacity, std::size_t p) {
              if (per_cell_threads >= 2 &&
                  ShardedReplay::exact_eligible(config.policies[p],
                                                config.simulator)) {
                ShardedConfig sharded;
                sharded.threads = per_cell_threads;
                return simulate_sharded(trace, capacity, config.policies[p],
                                        config.simulator, sharded);
              }
              return simulate(trace, capacity, config.policies[p],
                              config.simulator);
            });
  return sweep;
}

template <typename TraceT>
SweepResult run_frontend_sweep(const TraceT& trace,
                               const FrontendSweepConfig& config) {
  validate_frontends(config);
  SweepResult sweep = layout_grid(trace.overall_size_bytes(),
                                  config.cache_fractions,
                                  config.frontends.size());
  fill_grid(sweep, config.frontends.size(), config.threads, {},
            [&](std::uint64_t capacity, std::size_t p) {
              const auto frontend = build_frontend(config, p, capacity);
              if (!config.faults.empty()) {
                return simulate(trace, *frontend, config.simulator,
                                config.faults);
              }
              return simulate(trace, *frontend, config.simulator);
            });
  return sweep;
}

}  // namespace

SweepResult run_sweep(const trace::Trace& trace, const SweepConfig& config) {
  return run_policy_sweep(trace, config);
}

SweepResult run_sweep(const trace::DenseTrace& trace,
                      const SweepConfig& config) {
  return run_policy_sweep(trace, config);
}

SweepResult run_sweep(const trace::Trace& trace,
                      const FrontendSweepConfig& config) {
  return run_frontend_sweep(trace, config);
}

SweepResult run_sweep(const trace::DenseTrace& trace,
                      const FrontendSweepConfig& config) {
  return run_frontend_sweep(trace, config);
}

}  // namespace webcache::sim
