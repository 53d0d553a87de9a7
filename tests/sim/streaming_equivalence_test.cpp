// The streaming replay must be a pure delivery change: driving the same
// requests through simulate_stream() in chunks of any size has to yield
// byte-identical SimResults to materializing and densifying them and
// calling simulate() — for every factory policy, with metrics windows that
// straddle chunk boundaries. For the paper policies
// the reference is the textbook oracle (tests/support/oracle.hpp), which
// shares no code with either replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporter.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "support/oracle.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request_stream.hpp"
#include "trace/streaming_trace.hpp"

namespace webcache::sim {
namespace {

// Chunk size 0 = whole trace in one span; 1 = one request per chunk (every
// boundary condition), 7 = misaligned with every window/event interval.
const std::vector<std::size_t> kChunkings = {1, 7, 4096, 0};

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

// What a streamed replay of `t` must produce: the oracle's result for the
// policies it models, the materialized dense replay's for the others.
SimResult reference(const trace::Trace& t, std::uint64_t capacity,
                    const cache::PolicySpec& spec,
                    const SimulatorOptions& options) {
  return oracle::supports(spec)
             ? oracle::replay(t, capacity, spec, options)
             : simulate(trace::densify(t), capacity, spec, options);
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
    const SimResult baseline = reference(t, capacity, spec, options);
    for (const std::size_t chunk : kChunkings) {
      trace::MemoryRequestStream stream(t, chunk);
      const SimResult streamed =
          simulate_stream(stream, capacity, spec, options);
      expect_same_result(baseline, streamed,
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
  const SimResult baseline =
      simulate(trace::densify(t), capacity, spec, options, &baseline_sink);
  expect_same_result(reference(t, capacity, spec, options), baseline,
                     "instrumented vs oracle");
  std::ostringstream baseline_json;
  write_metrics_json(baseline_json, baseline, baseline_sink.series());

  for (const std::size_t chunk : kChunkings) {
    trace::MemoryRequestStream stream(t, chunk);
    obs::RecordingSink sink(113);
    const SimResult streamed =
        simulate_stream(stream, capacity, spec, options, sink);
    expect_same_result(baseline, streamed,
                       "metrics chunk=" + std::to_string(chunk));
    std::ostringstream json;
    write_metrics_json(json, streamed, sink.series());
    EXPECT_EQ(baseline_json.str(), json.str())
        << "metrics JSON diverged at chunk=" << chunk;
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
      const SimResult baseline = reference(t, capacity, spec, options);
      trace::MemoryRequestStream stream(t, 7);
      const SimResult streamed =
          simulate_stream(stream, capacity, spec, options);
      expect_same_result(baseline, streamed,
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

  const SimResult baseline = reference(t, capacity, spec, options);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    trace::StreamingTraceReader stream(path, chunk);
    EXPECT_EQ(stream.total_requests(), t.total_requests());
    const SimResult streamed = simulate_stream(stream, capacity, spec, options);
    expect_same_result(baseline, streamed,
                       "file chunk=" + std::to_string(chunk));

    // reset() must replay the identical stream.
    stream.reset();
    const SimResult again = simulate_stream(stream, capacity, spec, options);
    expect_same_result(baseline, again,
                       "file reset chunk=" + std::to_string(chunk));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::sim
