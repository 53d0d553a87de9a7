// Replay-throughput harness for the dense-id hot path.
//
// Replays two traces — a synthetic DFN workload and the same workload
// round-tripped through the native Squid log format (writer -> parser ->
// preprocessor, i.e. the exact pipeline a real access.log takes) — through
// the four paper policies under both cost models, once over the map-backed
// simulate() and once over the dense-id simulate(), and reports replay
// throughput for both. Two further sections cover the multi-cache
// subsystems: the edge/backbone hierarchy (simulate_hierarchy) and the
// class-partitioned composite cache (PartitionedCache through the frontend
// simulate overloads). Two more sections time the one-pass machinery: a
// `stack_sweep` section races the byte-weighted stack-analysis engine
// (sim/stack_sweep.hpp, one replay for every capacity) against the serial
// per-cell grid on an 8-fraction LRU ladder, and a `trace_load` section
// times the mmap binary-trace loader against the per-record stream decoder
// on a freshly written trace file. A `lazy_promotion` section replays the
// lazy-promotion / RANDOM family (RANDOM, CLOCK, DELAY-CLOCK, PROB-LRU,
// DELAY-LRU, BATCH-LRU) against an LRU baseline on the dense path,
// reporting each member's requests/sec relative to LRU next to its hit
// rate — the cost/accuracy trade the family exists for. A `streaming` section races the bounded-memory paths
// (file-streamed replay via StreamingTraceReader, its online-densified
// variant, and the SHARDS-sampled sweep) against their materialized twins,
// cross-checking bit-identity for the replays and the reported error
// bounds for the sampled sweep. A `checkpoint` section prices the
// crash-safe snapshot machinery: the checkpointed streaming replay against
// the plain streamed run at cadence off / 10^6 / 10^5 (plus a forced-write
// cell), every cadence cross-checked bit-identical to the baseline.
//
// Every cell also cross-checks the two paths: overall and per-class
// hit/byte-hit counters, evictions and bypasses must be bit-identical, or
// the run fails with exit code 1. A speedup number from a run that changed
// eviction order would be meaningless.
//
// Output: a human-readable table on stdout plus machine-readable
// BENCH_throughput.json (override with --json=<path>) with requests/sec,
// evictions/sec, speedup per cell, and the process peak RSS.
//
// Extra flags on top of the common bench set:
//   --reps=<n>       timed repetitions per cell, best-of-n (default 3)
//   --fraction=<f>   cache size as a fraction of overall trace size
//                    (default 0.04 — eviction-heavy, mid-ladder)
//   --json=<path>    where to write the JSON report
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "cache/partitioned.hpp"
#include "common.hpp"
#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sampled_sweep.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "sim/streaming.hpp"
#include "sim/sweep.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/preprocess.hpp"
#include "trace/squid_log_writer.hpp"
#include "trace/streaming_trace.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace webcache;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

template <typename Result>
struct Timing {
  double seconds = 0.0;
  Result result;
};

/// Runs `run` `reps` times and keeps the fastest repetition; the result is
/// deterministic so any repetition's result is the result.
template <typename Run>
auto best_of(int reps, Run&& run) -> Timing<decltype(run())> {
  Timing<decltype(run())> best;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto result = run();
    const double elapsed = seconds_since(start);
    if (i == 0 || elapsed < best.seconds) {
      best.seconds = elapsed;
      best.result = std::move(result);
    }
  }
  return best;
}

bool counters_equal(const sim::HitCounters& a, const sim::HitCounters& b) {
  return a.requests == b.requests && a.hits == b.hits &&
         a.requested_bytes == b.requested_bytes && a.hit_bytes == b.hit_bytes;
}

bool results_identical(const sim::SimResult& a, const sim::SimResult& b) {
  if (!counters_equal(a.overall, b.overall)) return false;
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    if (!counters_equal(a.per_class[c], b.per_class[c])) return false;
  }
  return a.evictions == b.evictions && a.bypasses == b.bypasses &&
         a.modification_misses == b.modification_misses &&
         a.interrupted_transfers == b.interrupted_transfers;
}

struct CellReport {
  std::string policy;
  std::string cost_model;
  double sparse_seconds = 0.0;
  double dense_seconds = 0.0;
  double sparse_rps = 0.0;
  double dense_rps = 0.0;
  double sparse_eps = 0.0;
  double dense_eps = 0.0;
  double speedup = 0.0;
  bool identical = false;
  // Same dense replay with an obs::RecordingSink attached (window 10000):
  // the instrumentation overhead, tracked release-to-release alongside the
  // dense/sparse speedup. Detailed per-path numbers live in
  // bench/obs_overhead.
  double dense_recording_seconds = 0.0;
  double obs_overhead_pct = 0.0;
  bool recording_identical = false;
};

struct TraceReport {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t documents = 0;
  std::uint64_t capacity_bytes = 0;
  double densify_seconds = 0.0;
  std::vector<CellReport> cells;
};

std::string_view cost_model_name(cache::CostModelKind kind) {
  switch (kind) {
    case cache::CostModelKind::kConstant:
      return "constant";
    case cache::CostModelKind::kPacket:
      return "packet";
    case cache::CostModelKind::kLatency:
      return "latency";
  }
  return "?";
}

TraceReport run_trace(const std::string& name, const trace::Trace& trace,
                      double fraction, int reps,
                      const sim::SimulatorOptions& options) {
  TraceReport report;
  report.name = name;
  report.requests = trace.requests.size();
  report.capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(trace.overall_size_bytes()) * fraction);

  const auto densify_start = std::chrono::steady_clock::now();
  const trace::DenseTrace dense = trace::densify(trace);
  report.densify_seconds = seconds_since(densify_start);
  report.documents = dense.document_count();

  std::vector<cache::PolicySpec> specs =
      cache::paper_policy_set(cache::CostModelKind::kConstant);
  for (const cache::PolicySpec& spec :
       cache::paper_policy_set(cache::CostModelKind::kPacket)) {
    specs.push_back(spec);
  }

  const double requests = static_cast<double>(report.requests);
  for (const cache::PolicySpec& spec : specs) {
    const auto sparse = best_of(reps, [&] {
      return sim::simulate(trace, report.capacity_bytes, spec, options);
    });
    const auto dense_timing = best_of(reps, [&] {
      return sim::simulate(dense, report.capacity_bytes, spec, options);
    });
    obs::RecordingSink sink(10000);
    const auto recording = best_of(reps, [&] {
      return sim::simulate(dense, report.capacity_bytes, spec, options, sink);
    });

    CellReport cell;
    cell.policy = dense_timing.result.policy_name;
    cell.cost_model = std::string(cost_model_name(spec.cost_model));
    cell.sparse_seconds = sparse.seconds;
    cell.dense_seconds = dense_timing.seconds;
    cell.sparse_rps = requests / sparse.seconds;
    cell.dense_rps = requests / dense_timing.seconds;
    cell.sparse_eps =
        static_cast<double>(sparse.result.evictions) / sparse.seconds;
    cell.dense_eps = static_cast<double>(dense_timing.result.evictions) /
                     dense_timing.seconds;
    cell.speedup = sparse.seconds / dense_timing.seconds;
    cell.identical = results_identical(sparse.result, dense_timing.result);
    cell.dense_recording_seconds = recording.seconds;
    cell.obs_overhead_pct =
        (recording.seconds / dense_timing.seconds - 1.0) * 100.0;
    cell.recording_identical =
        results_identical(dense_timing.result, recording.result);
    report.cells.push_back(cell);
  }
  return report;
}

// ---- multi-cache subsystems: hierarchy + partitioned composite ----

/// One dense-vs-sparse cell of a composite subsystem (hierarchy config or
/// partitioned-cache variant).
struct CompositeCell {
  std::string label;
  double sparse_seconds = 0.0;
  double dense_seconds = 0.0;
  double sparse_rps = 0.0;
  double dense_rps = 0.0;
  double sparse_eps = 0.0;
  double dense_eps = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

CompositeCell make_composite_cell(std::string label, double requests,
                                  double sparse_seconds,
                                  std::uint64_t sparse_evictions,
                                  double dense_seconds,
                                  std::uint64_t dense_evictions,
                                  bool identical) {
  CompositeCell cell;
  cell.label = std::move(label);
  cell.sparse_seconds = sparse_seconds;
  cell.dense_seconds = dense_seconds;
  cell.sparse_rps = requests / sparse_seconds;
  cell.dense_rps = requests / dense_seconds;
  cell.sparse_eps = static_cast<double>(sparse_evictions) / sparse_seconds;
  cell.dense_eps = static_cast<double>(dense_evictions) / dense_seconds;
  cell.speedup = sparse_seconds / dense_seconds;
  cell.identical = identical;
  return cell;
}

bool hierarchy_identical(const sim::HierarchyResult& a,
                         const sim::HierarchyResult& b) {
  if (!counters_equal(a.offered, b.offered) ||
      !counters_equal(a.edge_hits, b.edge_hits) ||
      !counters_equal(a.sibling_hits, b.sibling_hits) ||
      !counters_equal(a.root_hits, b.root_hits)) {
    return false;
  }
  for (std::size_t c = 0; c < a.edge_per_class.size(); ++c) {
    if (!counters_equal(a.edge_per_class[c], b.edge_per_class[c]) ||
        !counters_equal(a.root_per_class[c], b.root_per_class[c])) {
      return false;
    }
  }
  return a.root_requests == b.root_requests &&
         a.edge_evictions == b.edge_evictions &&
         a.root_evictions == b.root_evictions;
}

std::vector<CompositeCell> run_hierarchy_cells(
    const trace::Trace& trace, const trace::DenseTrace& dense, double fraction,
    int reps, const sim::SimulatorOptions& options) {
  struct Variant {
    std::string edge_policy;
    std::string root_policy;
    std::uint32_t edges;
    bool sibling;
  };
  const std::vector<Variant> variants = {
      {"LRU", "LRU", 4, false},
      {"GD*(1)", "GD*(packet)", 4, false},
      {"GD*(1)", "GD*(packet)", 4, true},
      {"LFU-DA", "GD*(packet)", 8, false},
  };

  const double requests = static_cast<double>(trace.requests.size());
  std::vector<CompositeCell> cells;
  for (const Variant& v : variants) {
    sim::HierarchyConfig config;
    config.edge_count = v.edges;
    config.edge_policy = cache::policy_spec_from_name(v.edge_policy);
    config.root_policy = cache::policy_spec_from_name(v.root_policy);
    config.root_capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(trace.overall_size_bytes()) * fraction);
    config.edge_capacity_bytes =
        std::max<std::uint64_t>(1, config.root_capacity_bytes / v.edges);
    config.simulator = options;
    config.sibling_cooperation = v.sibling;

    const auto sparse =
        best_of(reps, [&] { return sim::simulate_hierarchy(trace, config); });
    const auto dense_timing =
        best_of(reps, [&] { return sim::simulate_hierarchy(dense, config); });

    cells.push_back(make_composite_cell(
        "edges=" + std::to_string(v.edges) + " " + v.edge_policy + "/" +
            v.root_policy + (v.sibling ? " +sibling" : ""),
        requests, sparse.seconds,
        sparse.result.edge_evictions + sparse.result.root_evictions,
        dense_timing.seconds,
        dense_timing.result.edge_evictions + dense_timing.result.root_evictions,
        hierarchy_identical(sparse.result, dense_timing.result)));
  }
  return cells;
}

std::vector<CompositeCell> run_partitioned_cells(
    const trace::Trace& trace, const trace::DenseTrace& dense, double fraction,
    int reps, const sim::SimulatorOptions& options) {
  // Shares proportional to the DFN request mix — the hit-rate-oriented
  // configuration from the partitioned-cache extension benchmark.
  const synth::WorkloadProfile profile = synth::WorkloadProfile::DFN();
  std::array<double, trace::kDocumentClassCount> weights{};
  for (const auto cls : trace::kAllDocumentClasses) {
    weights[static_cast<std::size_t>(cls)] = profile.of(cls).request_fraction;
  }
  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(trace.overall_size_bytes()) * fraction);

  const double requests = static_cast<double>(trace.requests.size());
  std::vector<CompositeCell> cells;
  for (const cache::PolicySpec& spec :
       cache::paper_policy_set(cache::CostModelKind::kConstant)) {
    const auto config =
        cache::PartitionedCacheConfig::uniform_policy(capacity, spec, weights);
    // Frontends are stateful: each repetition replays against a cold cache.
    const auto sparse = best_of(reps, [&] {
      cache::PartitionedCache cache(config);
      return sim::simulate(trace, cache, options);
    });
    const auto dense_timing = best_of(reps, [&] {
      cache::PartitionedCache cache(config);
      return sim::simulate(dense, cache, options);
    });

    cells.push_back(make_composite_cell(
        "Partitioned " + std::string(cache::make_policy(spec)->name()) +
            " request-mix",
        requests, sparse.seconds, sparse.result.evictions, dense_timing.seconds,
        dense_timing.result.evictions,
        results_identical(sparse.result, dense_timing.result)));
  }
  return cells;
}

// ---- one-pass machinery: stack-analysis sweeps + the mmap trace loader ----

bool sweeps_identical(const sim::SweepResult& a, const sim::SweepResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    if (a.points[p].capacity_bytes != b.points[p].capacity_bytes ||
        a.points[p].results.size() != b.points[p].results.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.points[p].results.size(); ++i) {
      if (!results_identical(a.points[p].results[i], b.points[p].results[i])) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t sweep_evictions(const sim::SweepResult& sweep) {
  std::uint64_t total = 0;
  for (const sim::SweepPoint& point : sweep.points) {
    for (const sim::SimResult& r : point.results) total += r.evictions;
  }
  return total;
}

/// Races the one-pass stack-analysis engine against the serial per-cell
/// grid on an 8-fraction LRU ladder (the sweep the paper's figures take
/// per policy). The ladder is clamped so every capacity is stack-eligible
/// (>= the largest transfer), keeping the comparison engine vs grid rather
/// than fallback vs grid.
std::vector<CompositeCell> run_stack_sweep_cells(
    const trace::Trace& trace, const trace::DenseTrace& dense, int reps,
    const sim::SimulatorOptions& options) {
  const double overall = static_cast<double>(trace.overall_size_bytes());
  const double lo = std::max(
      0.005,
      static_cast<double>(sim::StackSweep::max_transfer_size(trace)) /
          overall);
  const double hi = std::max(0.40, lo * 2.0);
  sim::SweepConfig config;
  config.cache_fractions.clear();
  for (int i = 0; i < 8; ++i) {
    config.cache_fractions.push_back(lo * std::pow(hi / lo, i / 7.0));
  }
  config.policies = {cache::policy_spec_from_name("LRU")};
  config.simulator = options;
  config.threads = 1;  // the baseline is the *serial* per-cell grid

  const double requests = static_cast<double>(trace.requests.size());
  std::vector<CompositeCell> cells;
  const auto race = [&](const auto& t, const std::string& label) {
    config.one_pass = sim::OnePassMode::kOff;
    const auto grid = best_of(reps, [&] { return sim::run_sweep(t, config); });
    config.one_pass = sim::OnePassMode::kOn;
    const auto one_pass =
        best_of(reps, [&] { return sim::run_sweep(t, config); });
    cells.push_back(make_composite_cell(
        label, requests, grid.seconds, sweep_evictions(grid.result),
        one_pass.seconds, sweep_evictions(one_pass.result),
        sweeps_identical(grid.result, one_pass.result)));
  };
  race(trace, "one-pass LRU x8 ladder (sparse)");
  race(dense, "one-pass LRU x8 ladder (dense)");
  return cells;
}

// ---- lazy-promotion / RANDOM family: hit-path cost vs LRU ----

/// One member of the lazy-promotion family, replayed on the dense path and
/// compared against the LRU baseline from the same trace. The point of the
/// family is a cheaper (read-mostly or deferred) hit path, so the headline
/// number is dense requests/sec relative to LRU; the hit rate is reported
/// alongside so the speed is never read without its accuracy cost, and the
/// sparse/dense cross-check keeps the cell honest like every other section.
struct LazyCell {
  std::string policy;
  double dense_seconds = 0.0;
  double dense_rps = 0.0;
  double rps_vs_lru = 0.0;  // dense requests/sec relative to the LRU cell
  double hit_rate = 0.0;
  bool identical = false;  // sparse replay == dense replay
};

std::vector<LazyCell> run_lazy_promotion_cells(
    const trace::Trace& trace, const trace::DenseTrace& dense,
    std::uint64_t capacity, int reps, const sim::SimulatorOptions& options) {
  const double requests = static_cast<double>(trace.requests.size());
  std::vector<LazyCell> cells;
  for (const char* name :
       {"LRU", "RANDOM", "CLOCK", "DELAY-CLOCK:k=8", "PROB-LRU:p=0.1",
        "DELAY-LRU:k=16", "BATCH-LRU:batch=64"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const auto sparse = best_of(
        reps, [&] { return sim::simulate(trace, capacity, spec, options); });
    const auto dense_timing = best_of(
        reps, [&] { return sim::simulate(dense, capacity, spec, options); });

    LazyCell cell;
    cell.policy = dense_timing.result.policy_name;
    cell.dense_seconds = dense_timing.seconds;
    cell.dense_rps = requests / dense_timing.seconds;
    cell.hit_rate = dense_timing.result.overall.hit_rate();
    cell.identical = results_identical(sparse.result, dense_timing.result);
    cells.push_back(cell);
  }
  const double lru_rps = cells.front().dense_rps;
  for (LazyCell& cell : cells) cell.rps_vs_lru = cell.dense_rps / lru_rps;
  return cells;
}

void append_lazy_json(std::ostringstream& out,
                      const std::vector<LazyCell>& cells) {
  out << "  \"lazy_promotion\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LazyCell& c = cells[i];
    out << "    {\"policy\": \"" << c.policy << "\", "
        << "\"dense_seconds\": " << c.dense_seconds << ", "
        << "\"dense_requests_per_sec\": " << c.dense_rps << ", "
        << "\"rps_vs_lru\": " << c.rps_vs_lru << ", "
        << "\"hit_rate\": " << c.hit_rate << ", "
        << "\"identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
}

bool traces_equal(const trace::Trace& a, const trace::Trace& b) {
  if (a.requests.size() != b.requests.size()) return false;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const trace::Request& x = a.requests[i];
    const trace::Request& y = b.requests[i];
    if (x.timestamp_ms != y.timestamp_ms || x.document != y.document ||
        x.client != y.client || x.doc_class != y.doc_class ||
        x.status != y.status || x.document_size != y.document_size ||
        x.transfer_size != y.transfer_size) {
      return false;
    }
  }
  return true;
}

/// Times the binary-trace loaders on a freshly written file: the
/// per-record stream decoder (the non-seekable baseline) vs the one-shot
/// mmap image decoder behind read_binary_trace_file.
std::vector<CompositeCell> run_trace_load_cells(const trace::Trace& trace,
                                                int reps) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "webcache_bench_trace_load.wct";
  trace::write_binary_trace_file(path.string(), trace);

  const auto stream = best_of(reps, [&] {
    std::ifstream in(path, std::ios::binary);
    return trace::read_binary_trace(in);
  });
  const auto mapped = best_of(
      reps, [&] { return trace::read_binary_trace_file(path.string()); });
  std::error_code ec;
  fs::remove(path, ec);

  const bool identical = traces_equal(stream.result, trace) &&
                         traces_equal(mapped.result, trace);
  return {make_composite_cell("binary trace load (stream vs mmap)",
                              static_cast<double>(trace.requests.size()),
                              stream.seconds, 0, mapped.seconds, 0,
                              identical)};
}

// ---- streaming replay & sampled sweep: the bounded-memory paths ----

/// Races the bounded-memory paths against their materialized twins on a
/// freshly written trace file: the file-streamed replay (and its
/// online-densified variant) against load-then-simulate, and the
/// SHARDS-sampled LRU sweep against the exact one-pass ladder. Replay
/// cells must be bit-identical; the sampled cell's "identical" flag means
/// every point landed within its own reported error bound — the same
/// contract the test suite pins, checked here on every bench run.
std::vector<CompositeCell> run_streaming_cells(
    const trace::Trace& trace, std::uint64_t capacity, int reps,
    const sim::SimulatorOptions& options) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "webcache_bench_streaming.wct";
  trace::write_binary_trace_file(path.string(), trace);
  const double requests = static_cast<double>(trace.requests.size());
  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");

  std::vector<CompositeCell> cells;

  // Baseline: load the whole file, then replay. The streamed runs re-read
  // the same file chunk by chunk through the identical per-request core.
  const auto materialized = best_of(reps, [&] {
    const trace::Trace loaded = trace::read_binary_trace_file(path.string());
    return sim::simulate(loaded, capacity, lru, options);
  });
  const auto streamed = best_of(reps, [&] {
    trace::StreamingTraceReader reader(path.string());
    return sim::simulate_stream(reader, capacity, lru, options);
  });
  cells.push_back(make_composite_cell(
      "file-streamed LRU replay", requests, materialized.seconds,
      materialized.result.evictions, streamed.seconds,
      streamed.result.evictions,
      results_identical(materialized.result, streamed.result)));

  const auto densified = best_of(reps, [&] {
    trace::StreamingTraceReader reader(path.string());
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(lru));
    return sim::simulate_stream_densified(reader, frontend, options);
  });
  cells.push_back(make_composite_cell(
      "file-streamed LRU replay (online densify)", requests,
      materialized.seconds, materialized.result.evictions, densified.seconds,
      densified.result.evictions,
      results_identical(materialized.result, densified.result)));

  // Sampled sweep vs exact one-pass on a 4-capacity LRU ladder. The floor
  // keeps every capacity stack-eligible for the exact engine.
  const std::uint64_t floor_bytes = sim::StackSweep::max_transfer_size(trace);
  sim::SampledSweepConfig sampled_config;
  for (const std::uint64_t div : {200, 50, 12, 3}) {
    sampled_config.capacities.push_back(
        std::max(floor_bytes, trace.overall_size_bytes() / div));
  }
  sampled_config.simulator = options;
  const auto exact = best_of(reps, [&] {
    return sim::StackSweep(sampled_config.capacities, options).run(trace);
  });
  sampled_config.sample_rate = 0.1;
  const auto sampled = best_of(reps, [&] {
    trace::StreamingTraceReader reader(path.string());
    return sim::SampledSweep(sampled_config).run(reader);
  });
  bool within_bounds = true;
  for (std::size_t i = 0; i < sampled_config.capacities.size(); ++i) {
    const sim::SampledPoint& p = sampled.result.points[i];
    within_bounds = within_bounds &&
                    std::abs(p.hit_rate - exact.result[i].overall.hit_rate()) <=
                        p.hit_rate_error;
  }
  cells.push_back(make_composite_cell(
      "SHARDS-sampled LRU sweep rate=0.1 (within bound)", requests,
      exact.seconds, 0, sampled.seconds, 0, within_bounds));

  std::error_code ec;
  fs::remove(path, ec);
  return cells;
}

// ---- checkpointed streaming replay: snapshot cost per cadence ----

/// Races the checkpointed streaming replay against the plain streamed
/// baseline at three cadences: off (the machinery engaged but no snapshot
/// ever written — must cost nothing), every 10^6 and every 10^5 requests
/// (the serialization + atomic-write cost amortized over the cadence), plus
/// a requests/8 cell so snapshot writes are exercised at any --scale. Every
/// cell cross-checks bit-identity with the uncheckpointed run: snapshot
/// writes observe the replay, they must never perturb it.
std::vector<CompositeCell> run_checkpoint_cells(
    const trace::Trace& trace, std::uint64_t capacity, int reps,
    const sim::SimulatorOptions& options) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "webcache_bench_checkpoint.wct";
  trace::write_binary_trace_file(path.string(), trace);
  const fs::path ring =
      fs::temp_directory_path() / "webcache_bench_checkpoint.ring";
  const double requests = static_cast<double>(trace.requests.size());
  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");

  const auto plain = best_of(reps, [&] {
    trace::StreamingTraceReader reader(path.string());
    return sim::simulate_stream(reader, capacity, lru, options);
  });

  struct Cadence {
    std::string label;
    std::uint64_t every;
  };
  const std::vector<Cadence> cadences = {
      {"checkpointed LRU replay (cadence off)", 0},
      {"checkpointed LRU replay (every 10^6)", 1'000'000},
      {"checkpointed LRU replay (every 10^5)", 100'000},
      {"checkpointed LRU replay (every requests/8)",
       std::max<std::uint64_t>(1, trace.requests.size() / 8)},
  };

  std::vector<CompositeCell> cells;
  for (const Cadence& cadence : cadences) {
    const auto timing = best_of(reps, [&] {
      // Every repetition starts cold with an empty ring: retention pruning
      // and the atomic write path are part of what is being timed.
      std::error_code ec;
      fs::remove_all(ring, ec);
      trace::StreamingTraceReader reader(path.string());
      cache::SingleCacheFrontend frontend(capacity, cache::make_policy(lru));
      sim::StreamCheckpointJob job;
      job.options = options;
      job.checkpoint.dir = ring.string();
      job.checkpoint.every = cadence.every;
      job.checkpoint.trace_source = path.string();
      return sim::simulate_stream_checkpointed(reader, frontend, job).result;
    });
    cells.push_back(make_composite_cell(
        cadence.label, requests, plain.seconds, plain.result.evictions,
        timing.seconds, timing.result.evictions,
        results_identical(plain.result, timing.result)));
  }

  std::error_code ec;
  fs::remove_all(ring, ec);
  fs::remove(path, ec);
  return cells;
}

void append_composite_json(std::ostringstream& out, const std::string& key,
                           const std::vector<CompositeCell>& cells) {
  out << "  \"" << key << "\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CompositeCell& c = cells[i];
    out << "    {\"label\": \"" << c.label << "\", "
        << "\"sparse_seconds\": " << c.sparse_seconds << ", "
        << "\"dense_seconds\": " << c.dense_seconds << ", "
        << "\"sparse_requests_per_sec\": " << c.sparse_rps << ", "
        << "\"dense_requests_per_sec\": " << c.dense_rps << ", "
        << "\"sparse_evictions_per_sec\": " << c.sparse_eps << ", "
        << "\"dense_evictions_per_sec\": " << c.dense_eps << ", "
        << "\"speedup\": " << c.speedup << ", "
        << "\"identical\": " << (c.identical ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
}

void emit_composite_table(const bench::BenchContext& ctx,
                          const std::string& title, const std::string& slug,
                          const std::vector<CompositeCell>& cells,
                          bool& all_identical,
                          const std::string& baseline_col = "map req/s",
                          const std::string& fast_col = "dense req/s") {
  util::Table table(title);
  table.set_header(
      {"configuration", baseline_col, fast_col, "speedup", "identical"});
  for (const CompositeCell& c : cells) {
    table.add_row({c.label,
                   util::fmt_count(static_cast<std::uint64_t>(c.sparse_rps)),
                   util::fmt_count(static_cast<std::uint64_t>(c.dense_rps)),
                   util::fmt_fixed(c.speedup, 2), c.identical ? "yes" : "NO"});
    all_identical = all_identical && c.identical;
  }
  ctx.emit(table, slug);
  std::cout << "\n";
}

void append_json(std::ostringstream& out, const TraceReport& report) {
  out << "    {\n"
      << "      \"trace\": \"" << report.name << "\",\n"
      << "      \"requests\": " << report.requests << ",\n"
      << "      \"documents\": " << report.documents << ",\n"
      << "      \"capacity_bytes\": " << report.capacity_bytes << ",\n"
      << "      \"densify_seconds\": " << report.densify_seconds << ",\n"
      << "      \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellReport& c = report.cells[i];
    out << "        {\"policy\": \"" << c.policy << "\", \"cost_model\": \""
        << c.cost_model << "\", "
        << "\"sparse_seconds\": " << c.sparse_seconds << ", "
        << "\"dense_seconds\": " << c.dense_seconds << ", "
        << "\"sparse_requests_per_sec\": " << c.sparse_rps << ", "
        << "\"dense_requests_per_sec\": " << c.dense_rps << ", "
        << "\"sparse_evictions_per_sec\": " << c.sparse_eps << ", "
        << "\"dense_evictions_per_sec\": " << c.dense_eps << ", "
        << "\"speedup\": " << c.speedup << ", "
        << "\"identical\": " << (c.identical ? "true" : "false") << ", "
        << "\"dense_recording_seconds\": " << c.dense_recording_seconds
        << ", "
        << "\"obs_overhead_pct\": " << c.obs_overhead_pct << ", "
        << "\"recording_identical\": "
        << (c.recording_identical ? "true" : "false") << "}"
        << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "      ]\n    }";
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const int reps =
      std::max(1, static_cast<int>(args.get_uint("reps", 3)));
  const double fraction = args.get_double("fraction", 0.04);
  const std::string json_path = args.get("json", "BENCH_throughput.json");

  std::cout << "=== Replay throughput: map-backed vs dense-id (scale="
            << ctx.scale << ", fraction=" << fraction << ", reps=" << reps
            << ") ===\n\n";

  const sim::SimulatorOptions options = ctx.simulator_options();

  // Leg 1: the synthetic DFN trace as generated.
  const trace::Trace synthetic = ctx.make_trace(synth::WorkloadProfile::DFN());

  // Leg 2: the same trace round-tripped through the native Squid log
  // format, so the ids are URL hashes produced by the real parser pipeline
  // — the document-id distribution a production access.log would have.
  std::stringstream log;
  trace::write_squid_log(log, synthetic);
  const trace::Trace real_format = trace::preprocess_squid_log(log);

  std::vector<TraceReport> reports;
  reports.push_back(
      run_trace("synthetic-dfn", synthetic, fraction, reps, options));
  reports.push_back(
      run_trace("squid-roundtrip", real_format, fraction, reps, options));

  // The multi-cache subsystems replay the synthetic trace (it carries the
  // client ids the hierarchy's edge attachment needs).
  const trace::DenseTrace dense_synthetic = trace::densify(synthetic);
  const std::vector<CompositeCell> hierarchy_cells =
      run_hierarchy_cells(synthetic, dense_synthetic, fraction, reps, options);
  const std::vector<CompositeCell> partitioned_cells = run_partitioned_cells(
      synthetic, dense_synthetic, fraction, reps, options);
  const std::vector<CompositeCell> stack_sweep_cells =
      run_stack_sweep_cells(synthetic, dense_synthetic, reps, options);
  const std::vector<CompositeCell> trace_load_cells =
      run_trace_load_cells(synthetic, reps);
  const std::uint64_t synthetic_capacity = static_cast<std::uint64_t>(
      static_cast<double>(synthetic.overall_size_bytes()) * fraction);
  const std::vector<LazyCell> lazy_cells = run_lazy_promotion_cells(
      synthetic, dense_synthetic, synthetic_capacity, reps, options);
  const std::vector<CompositeCell> streaming_cells =
      run_streaming_cells(synthetic, synthetic_capacity, reps, options);
  const std::vector<CompositeCell> checkpoint_cells =
      run_checkpoint_cells(synthetic, synthetic_capacity, reps, options);

  bool all_identical = true;
  for (const TraceReport& report : reports) {
    util::Table table("trace " + report.name + " (" +
                      std::to_string(report.requests) + " requests, " +
                      std::to_string(report.documents) + " documents)");
    table.set_header({"policy", "cost", "map req/s", "dense req/s",
                      "speedup", "identical"});
    for (const CellReport& c : report.cells) {
      table.add_row(
          {c.policy, c.cost_model,
           util::fmt_count(static_cast<std::uint64_t>(c.sparse_rps)),
           util::fmt_count(static_cast<std::uint64_t>(c.dense_rps)),
           util::fmt_fixed(c.speedup, 2), c.identical ? "yes" : "NO"});
      all_identical = all_identical && c.identical && c.recording_identical;
    }
    ctx.emit(table, "throughput_" + report.name);
    std::cout << "\n";
  }

  emit_composite_table(ctx,
                       "hierarchy replay (" +
                           std::to_string(synthetic.requests.size()) +
                           " requests)",
                       "throughput_hierarchy", hierarchy_cells, all_identical);
  emit_composite_table(ctx,
                       "partitioned-cache replay (" +
                           std::to_string(synthetic.requests.size()) +
                           " requests)",
                       "throughput_partitioned", partitioned_cells,
                       all_identical);
  emit_composite_table(ctx,
                       "one-pass stack-analysis sweep (8-fraction LRU "
                       "ladder, serial grid baseline)",
                       "throughput_stack_sweep", stack_sweep_cells,
                       all_identical, "grid req/s", "one-pass req/s");
  emit_composite_table(ctx,
                       "binary trace load (" +
                           std::to_string(synthetic.requests.size()) +
                           " records)",
                       "throughput_trace_load", trace_load_cells,
                       all_identical, "stream rec/s", "mmap rec/s");
  emit_composite_table(ctx,
                       "bounded-memory streaming (" +
                           std::to_string(synthetic.requests.size()) +
                           " requests)",
                       "throughput_streaming", streaming_cells, all_identical,
                       "materialized req/s", "streamed req/s");
  emit_composite_table(ctx,
                       "checkpointed streaming replay (" +
                           std::to_string(synthetic.requests.size()) +
                           " requests)",
                       "throughput_checkpoint", checkpoint_cells,
                       all_identical, "plain req/s", "checkpointed req/s");

  {
    util::Table table("lazy-promotion family hit-path cost (dense replay, "
                      "LRU baseline)");
    table.set_header(
        {"policy", "dense req/s", "vs LRU", "hit rate", "identical"});
    for (const LazyCell& c : lazy_cells) {
      table.add_row({c.policy,
                     util::fmt_count(static_cast<std::uint64_t>(c.dense_rps)),
                     util::fmt_fixed(c.rps_vs_lru, 2),
                     util::fmt_fixed(c.hit_rate, 4),
                     c.identical ? "yes" : "NO"});
      all_identical = all_identical && c.identical;
    }
    ctx.emit(table, "throughput_lazy_promotion");
    std::cout << "\n";
  }

  const long rss_kb = peak_rss_kb();
  std::ostringstream json;
  json << "{\n"
       << "  \"scale\": " << ctx.scale << ",\n"
       << "  \"seed\": " << ctx.seed << ",\n"
       << "  \"cache_fraction\": " << fraction << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"peak_rss_kb\": " << rss_kb << ",\n"
       << "  \"all_identical\": " << (all_identical ? "true" : "false")
       << ",\n";
  append_composite_json(json, "hierarchy", hierarchy_cells);
  append_composite_json(json, "partitioned", partitioned_cells);
  append_composite_json(json, "stack_sweep", stack_sweep_cells);
  append_composite_json(json, "trace_load", trace_load_cells);
  append_composite_json(json, "streaming", streaming_cells);
  append_composite_json(json, "checkpoint", checkpoint_cells);
  append_lazy_json(json, lazy_cells);
  json << "  \"traces\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    append_json(json, reports[i]);
    json << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "peak RSS: " << rss_kb << " KB\nwrote " << json_path << "\n";

  if (!all_identical) {
    std::cerr << "error: dense results diverged from the map-backed path\n";
    return 1;
  }
  return 0;
}
