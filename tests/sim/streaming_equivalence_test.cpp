// The streaming replay must be a pure delivery change: driving the same
// requests through simulate_stream() in chunks of any size has to yield
// byte-identical SimResults to materializing them and calling simulate() —
// for every factory policy, with metrics windows and fault schedules that
// straddle chunk boundaries. The stream interns its ids densely as it reads
// and simulate(const Trace&) replays the sparse ids, so the sparse replay is
// the independent reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/reporter.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/request_stream.hpp"
#include "trace/streaming_trace.hpp"

namespace webcache::sim {
namespace {

// Chunk size 0 = whole trace in one span; 1 = one request per chunk (every
// boundary condition), 7 = misaligned with every window/event interval.
const std::vector<std::size_t> kChunkings = {1, 7, 4096, 0};

void expect_identical_counters(const HitCounters& a, const HitCounters& b,
                               const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.hits, b.hits) << label;
  EXPECT_EQ(a.requested_bytes, b.requested_bytes) << label;
  EXPECT_EQ(a.hit_bytes, b.hit_bytes) << label;
}

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.policy_name, b.policy_name) << label;
  EXPECT_EQ(a.capacity_bytes, b.capacity_bytes) << label;
  expect_identical_counters(a.overall, b.overall, label);
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    expect_identical_counters(a.per_class[c], b.per_class[c],
                              label + " class " + std::to_string(c));
  }
  EXPECT_EQ(a.warmup_requests, b.warmup_requests) << label;
  EXPECT_EQ(a.measured_requests, b.measured_requests) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.bypasses, b.bypasses) << label;
  // The latency sums accumulate the same doubles in the same order, so
  // exact equality is the correct expectation.
  EXPECT_EQ(a.miss_latency_ms, b.miss_latency_ms) << label;
  EXPECT_EQ(a.all_miss_latency_ms, b.all_miss_latency_ms) << label;
  EXPECT_EQ(a.modification_misses, b.modification_misses) << label;
  EXPECT_EQ(a.interrupted_transfers, b.interrupted_transfers) << label;
  EXPECT_EQ(a.faults.events_applied, b.faults.events_applied) << label;
  EXPECT_EQ(a.faults.failovers, b.faults.failovers) << label;
  EXPECT_EQ(a.faults.lost_requests, b.faults.lost_requests) << label;
  EXPECT_EQ(a.faults.lost_bytes, b.faults.lost_bytes) << label;
}

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

// Every spelling the policy factory accepts, including the lazy-promotion
// and randomized families (their RNGs key off the spec seed and the access
// sequence, so chunked delivery cannot perturb them).
const std::vector<std::string>& factory_policies() {
  static const std::vector<std::string> names = {
      "LRU",          "LRU-MIN",       "LRU-2",
      "LRU-THOLD(300000)",             "FIFO",
      "SIZE",         "LFU",           "LFU-DA",
      "GDS(1)",       "GDS(packet)",   "GDS(latency)",
      "GDSF(1)",      "GDSF(packet)",  "GDSF(latency)",
      "GD*(1)",       "GD*(packet)",   "GD*(latency)",
      "GD*C(1)",      "GD*C(packet)",
      "RANDOM:seed=7",                 "CLOCK",
      "DELAY-CLOCK:k=3",               "PROB-LRU:p=0.5,seed=9",
      "DELAY-LRU:k=2",                 "BATCH-LRU:batch=8"};
  return names;
}

TEST(StreamingEquivalence, AllFactoryPoliciesAllChunkings) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;  // 4%

  const SimulatorOptions options;

  for (const std::string& name : factory_policies()) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    const SimResult baseline = simulate(t, capacity, spec, options);
    for (const std::size_t chunk : kChunkings) {
      trace::MemoryRequestStream stream(t, chunk);
      const SimResult streamed =
          simulate_stream(stream, capacity, spec, options);
      expect_identical(baseline, streamed,
                       name + " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(StreamingEquivalence, MetricsWindowsStraddleChunkBoundaries) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(packet)");
  const SimulatorOptions options;

  // Window length 113 (prime) never aligns with chunk 7 or 4096, so nearly
  // every window closes mid-chunk; compare the full serialized series.
  obs::RecordingSink baseline_sink(113);
  const SimResult baseline = simulate(t, capacity, spec, options, baseline_sink);
  std::ostringstream baseline_json;
  write_metrics_json(baseline_json, baseline, baseline_sink.series());

  for (const std::size_t chunk : kChunkings) {
    trace::MemoryRequestStream stream(t, chunk);
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
    obs::RecordingSink sink(113);
    const SimResult streamed = simulate_stream(stream, frontend, options, sink);
    expect_identical(baseline, streamed,
                     "metrics chunk=" + std::to_string(chunk));
    std::ostringstream json;
    write_metrics_json(json, streamed, sink.series());
    EXPECT_EQ(baseline_json.str(), json.str())
        << "metrics JSON diverged at chunk=" << chunk;

    // The PolicySpec-taking overload builds its own frontend.
    trace::MemoryRequestStream spec_stream(t, chunk);
    obs::RecordingSink spec_sink(113);
    const SimResult by_spec =
        simulate_stream(spec_stream, capacity, spec, options, spec_sink);
    expect_identical(baseline, by_spec,
                     "metrics by spec chunk=" + std::to_string(chunk));
    std::ostringstream spec_json;
    write_metrics_json(spec_json, by_spec, spec_sink.series());
    EXPECT_EQ(baseline_json.str(), spec_json.str())
        << "metrics JSON by spec diverged at chunk=" << chunk;
  }
}

TEST(StreamingEquivalence, FaultSchedulesStraddleChunkBoundaries) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");
  const SimulatorOptions options;

  // Events pinned to chunk-7 boundaries (14, 15) and mid-chunk indices;
  // all key off the global 1-based request index.
  FaultSchedule schedule;
  schedule.events = {{14, FaultKind::kEdgeCrash, 0},
                     {15, FaultKind::kEdgeRecover, 0},
                     {100, FaultKind::kEdgeCrash, 0},
                     {4096, FaultKind::kEdgeRecover, 0},
                     {4097, FaultKind::kEdgeCrash, 0},
                     {5000, FaultKind::kEdgeRecover, 0}};
  schedule.seed = 17;

  cache::SingleCacheFrontend base_frontend(capacity, cache::make_policy(spec));
  const SimResult baseline = simulate(t, base_frontend, options, schedule);

  for (const std::size_t chunk : kChunkings) {
    trace::MemoryRequestStream stream(t, chunk);
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
    const SimResult streamed =
        simulate_stream(stream, frontend, options, schedule);
    expect_identical(baseline, streamed,
                     "faults chunk=" + std::to_string(chunk));

    trace::MemoryRequestStream spec_stream(t, chunk);
    const SimResult by_spec =
        simulate_stream(spec_stream, capacity, spec, options, schedule);
    expect_identical(baseline, by_spec,
                     "faults by spec chunk=" + std::to_string(chunk));
  }

  // Instrumented fault replay: series must also match exactly.
  obs::RecordingSink baseline_sink(113);
  cache::SingleCacheFrontend bf2(capacity, cache::make_policy(spec));
  const SimResult base2 = simulate(t, bf2, options, schedule, baseline_sink);
  std::ostringstream baseline_json;
  write_metrics_json(baseline_json, base2, baseline_sink.series());
  for (const std::size_t chunk : kChunkings) {
    trace::MemoryRequestStream stream(t, chunk);
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
    obs::RecordingSink sink(113);
    const SimResult streamed =
        simulate_stream(stream, frontend, options, schedule, sink);
    expect_identical(base2, streamed,
                     "faulted metrics chunk=" + std::to_string(chunk));
    std::ostringstream json;
    write_metrics_json(json, streamed, sink.series());
    EXPECT_EQ(baseline_json.str(), json.str())
        << "faulted metrics JSON diverged at chunk=" << chunk;

    trace::MemoryRequestStream spec_stream(t, chunk);
    obs::RecordingSink spec_sink(113);
    const SimResult by_spec = simulate_stream(spec_stream, capacity, spec,
                                              options, schedule, spec_sink);
    std::ostringstream spec_json;
    write_metrics_json(spec_json, by_spec, spec_sink.series());
    EXPECT_EQ(baseline_json.str(), spec_json.str())
        << "faulted metrics JSON by spec diverged at chunk=" << chunk;
  }
}

TEST(StreamingEquivalence, WarmupAndModificationRulesMatch) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 50;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(1)");

  for (const ModificationRule rule :
       {ModificationRule::kThreshold, ModificationRule::kAnyChange,
        ModificationRule::kNever}) {
    for (const double warmup : {0.0, 0.1, 0.37}) {
      SimulatorOptions options;
      options.modification_rule = rule;
      options.warmup_fraction = warmup;
      const SimResult baseline = simulate(t, capacity, spec, options);
      trace::MemoryRequestStream stream(t, 7);
      const SimResult streamed =
          simulate_stream(stream, capacity, spec, options);
      expect_identical(baseline, streamed,
                       "rule " + std::to_string(static_cast<int>(rule)) +
                           " warmup " + std::to_string(warmup));
    }
  }
}

TEST(StreamingEquivalence, FileReaderMatchesMaterializedLoad) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LFU-DA");
  const SimulatorOptions options;

  const std::string path =
      testing::TempDir() + "/streaming_equivalence.wct";
  trace::write_binary_trace_file(path, t);

  const SimResult baseline = simulate(t, capacity, spec, options);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    trace::StreamingTraceReader stream(path, chunk);
    EXPECT_EQ(stream.total_requests(), t.total_requests());
    const SimResult streamed = simulate_stream(stream, capacity, spec, options);
    expect_identical(baseline, streamed,
                     "file chunk=" + std::to_string(chunk));

    // reset() must replay the identical stream.
    stream.reset();
    const SimResult again = simulate_stream(stream, capacity, spec, options);
    expect_identical(baseline, again,
                     "file reset chunk=" + std::to_string(chunk));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::sim
