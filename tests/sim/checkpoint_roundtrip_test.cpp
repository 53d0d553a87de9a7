// Checkpoint/resume must be invisible: splitting a streaming replay at an
// arbitrary request, serializing the complete run state to disk, and
// resuming in a fresh process image has to yield bit-identical SimResults
// (and metrics series) to the uninterrupted run — for every factory policy,
// instrumented or not, with the stream's id map carried across every split.
// A checkpoint whose fingerprint disagrees with the resuming run must be
// rejected by name, never silently restored.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporter.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {
namespace {

namespace fs = std::filesystem;

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

cache::Cache make_frontend(const cache::PolicySpec& spec,
                           std::uint64_t capacity) {
  return cache::Cache(capacity, cache::make_policy(spec));
}

/// The checkpoint-free streamed replay, as simulate_stream runs it.
SimResult plain_stream(trace::RequestStream& stream,
                       cache::CacheFrontend& frontend,
                       const StreamCheckpointJob& job) {
  return simulate_stream_checkpointed(stream, frontend, job).result;
}

/// A fresh, empty checkpoint directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/webcache_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

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

TEST(CheckpointRoundTrip, AllFactoryPoliciesSplitRunMatchesUninterrupted) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;  // 4%
  const std::uint64_t half = t.total_requests() / 2;

  const SimulatorOptions options;

  std::size_t index = 0;
  for (const std::string& name : factory_policies()) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);

    trace::MemoryRequestStream s0(t, 4096);
    cache::Cache f0 = make_frontend(spec, capacity);
    const SimResult baseline = plain_stream(s0, f0, {.options = options});

    const std::string dir = fresh_dir("policy_" + std::to_string(index++));
    StreamCheckpointJob job;
    job.options = options;
    job.checkpoint.dir = dir;
    job.checkpoint.every = 919;  // prime: never aligns with chunk 4096
    job.checkpoint.keep = 2;
    job.checkpoint.trace_source = "synthetic-dfn-0.002";
    job.checkpoint.stop_after_requests = half;

    trace::MemoryRequestStream s1(t, 4096);
    cache::Cache f1 = make_frontend(spec, capacity);
    const CheckpointedRun phase1 = simulate_stream_checkpointed(s1, f1, job);
    EXPECT_TRUE(phase1.stopped_early) << name;
    EXPECT_GT(phase1.checkpoints_written, 0u) << name;

    // Resume through the PolicySpec-taking overload: it must fingerprint
    // and restore exactly like the frontend it replaces.
    job.checkpoint.stop_after_requests = 0;
    job.checkpoint.resume = true;
    trace::MemoryRequestStream s2(t, 4096);
    const CheckpointedRun done =
        simulate_stream_checkpointed(s2, capacity, spec, job);
    EXPECT_EQ(done.resumed_from, half) << name;
    EXPECT_TRUE(checkpoint_resume_diagnostics().empty()) << name;
    expect_same_result(baseline, done.result, name);
    fs::remove_all(dir);
  }
}

TEST(CheckpointRoundTrip, InstrumentedThreeSegmentRun) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const std::uint64_t third = t.total_requests() / 3;
  const SimulatorOptions options;

  std::size_t index = 0;
  for (const std::string& name :
       {std::string("LRU"), std::string("GD*(packet)")}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);

    obs::RecordingSink baseline_sink(113);
    trace::MemoryRequestStream s0(t, 4096);
    cache::Cache f0 = make_frontend(spec, capacity);
    const SimResult baseline =
        plain_stream(s0, f0, {.options = options, .sink = &baseline_sink});
    std::ostringstream baseline_json;
    write_metrics_json(baseline_json, baseline, baseline_sink.series());

    const std::string dir = fresh_dir("segments_" + std::to_string(index++));
    StreamCheckpointJob job;
    job.options = options;
    job.checkpoint.dir = dir;
    job.checkpoint.every = 701;
    job.checkpoint.trace_source = "synthetic-dfn-0.002";

    SimResult final_result;
    std::ostringstream final_json;
    const std::uint64_t stops[] = {third, 2 * third, 0};
    for (const std::uint64_t stop : stops) {
      job.checkpoint.stop_after_requests = stop;
      obs::RecordingSink sink(113);
      job.sink = &sink;
      trace::MemoryRequestStream stream(t, 4096);
      cache::Cache frontend = make_frontend(spec, capacity);
      const CheckpointedRun run =
          simulate_stream_checkpointed(stream, frontend, job);
      job.checkpoint.resume = true;  // every later segment resumes
      if (stop == 0) {
        final_result = run.result;
        EXPECT_EQ(run.resumed_from, 2 * third) << name;
        write_metrics_json(final_json, run.result, sink.series());
      } else {
        EXPECT_TRUE(run.stopped_early) << name;
      }
    }
    expect_same_result(baseline, final_result, name + " three segments");
    EXPECT_EQ(baseline_json.str(), final_json.str())
        << name << ": metrics series diverged across the splits";
    fs::remove_all(dir);
  }
}

TEST(CheckpointRoundTrip, ResumeOnEmptyDirectoryIsAColdStart) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const SimulatorOptions options;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GDSF(1)");

  trace::MemoryRequestStream s0(t, 4096);
  cache::Cache f0 = make_frontend(spec, capacity);
  const SimResult baseline = plain_stream(s0, f0, {.options = options});

  const std::string dir = fresh_dir("cold");
  StreamCheckpointJob job;
  job.options = options;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 3000;
  job.checkpoint.resume = true;  // nothing to resume from yet
  job.checkpoint.trace_source = "synthetic-dfn-0.002";

  trace::MemoryRequestStream s1(t, 4096);
  cache::Cache f1 = make_frontend(spec, capacity);
  const CheckpointedRun run = simulate_stream_checkpointed(s1, f1, job);
  EXPECT_EQ(run.resumed_from, 0u);
  EXPECT_GT(run.checkpoints_written, 0u);
  expect_same_result(baseline, run.result, "cold start");
  fs::remove_all(dir);
}

TEST(CheckpointRoundTrip, NoCheckpointConfigReplaysPlain) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const SimulatorOptions options;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LFU-DA");

  trace::MemoryRequestStream s0(t, 4096);
  cache::Cache f0 = make_frontend(spec, capacity);
  const SimResult baseline = plain_stream(s0, f0, {.options = options});

  StreamCheckpointJob job;  // every == 0, resume == false: no dir needed
  job.options = options;
  trace::MemoryRequestStream s1(t, 4096);
  cache::Cache f1 = make_frontend(spec, capacity);
  const CheckpointedRun run = simulate_stream_checkpointed(s1, f1, job);
  EXPECT_EQ(run.checkpoints_written, 0u);
  EXPECT_EQ(run.resumed_from, 0u);
  expect_same_result(baseline, run.result, "no checkpointing");
}

/// Every fingerprint disagreement between the checkpoint and the resuming
/// run must abort with a diagnostic naming the mismatching field — resuming
/// under a different configuration would produce confidently wrong numbers.
TEST(CheckpointRoundTrip, MismatchedResumeConfigurationsRejectedByName) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const std::uint64_t half = t.total_requests() / 2;
  SimulatorOptions options;

  const std::string dir = fresh_dir("mismatch");
  StreamCheckpointJob job;
  job.options = options;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 3000;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";
  job.checkpoint.stop_after_requests = half;

  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  trace::MemoryRequestStream s1(t, 4096);
  cache::Cache f1 = make_frontend(lru, capacity);
  ASSERT_TRUE(simulate_stream_checkpointed(s1, f1, job).stopped_early);

  job.checkpoint.stop_after_requests = 0;
  job.checkpoint.resume = true;

  const auto expect_rejected = [&](StreamCheckpointJob bad,
                                   const cache::PolicySpec& spec,
                                   std::uint64_t cap,
                                   const std::string& field) {
    trace::MemoryRequestStream stream(t, 4096);
    cache::Cache frontend = make_frontend(spec, cap);
    try {
      simulate_stream_checkpointed(stream, frontend, bad);
      FAIL() << "resume accepted a mismatched " << field;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  expect_rejected(job, cache::policy_spec_from_name("FIFO"), capacity,
                  "policy");
  expect_rejected(job, lru, capacity / 2, "capacity_bytes");
  {
    StreamCheckpointJob warm = job;
    warm.options.warmup_fraction = 0.25;
    expect_rejected(warm, lru, capacity, "warmup_fraction");
  }
  {
    StreamCheckpointJob other = job;
    other.checkpoint.trace_source = "some-other-trace.wct";
    expect_rejected(other, lru, capacity, "trace_source");
  }

  // The matching configuration still resumes fine afterwards.
  trace::MemoryRequestStream s2(t, 4096);
  cache::Cache f2 = make_frontend(lru, capacity);
  EXPECT_EQ(simulate_stream_checkpointed(s2, f2, job).resumed_from, half);
  fs::remove_all(dir);
}

TEST(CheckpointRoundTrip, RetentionKeepsOnlyNewestFiles) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const SimulatorOptions options;

  const std::string dir = fresh_dir("retention");
  StreamCheckpointJob job;
  job.options = options;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 1000;
  job.checkpoint.keep = 2;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";

  trace::MemoryRequestStream stream(t, 4096);
  cache::Cache frontend =
      make_frontend(cache::policy_spec_from_name("LRU"), capacity);
  const CheckpointedRun run = simulate_stream_checkpointed(stream, frontend, job);
  EXPECT_GT(run.checkpoints_written, 2u);

  // The newest `keep` checkpoints, plus the pruned file the next write
  // would recycle.
  std::size_t files = 0;
  std::size_t others = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        entry.path().extension() == ".wckp") {
      ++files;
    } else {
      ++others;
    }
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(others, 1u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / detail::kSpareCheckpointFile));
  fs::remove_all(dir);
}

std::vector<std::uint8_t> file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A recycled file is overwritten in place, so it must end up byte-equal
/// to a fresh one: whether the spare is longer than the new image (cut),
/// shorter (grown) or absent.
TEST(CheckpointRoundTrip, RecycledFilesEqualFreshOnes) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("GD*(packet)");
  constexpr std::uint64_t kEvery = 1000;

  StreamCheckpointJob job;
  job.checkpoint.every = kEvery;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";

  // Every file fresh: nothing is ever pruned.
  const std::string fresh = fresh_dir("recycle_fresh");
  job.checkpoint.dir = fresh;
  job.checkpoint.keep = 100;
  {
    trace::MemoryRequestStream stream(t, 4096);
    cache::Cache frontend = make_frontend(spec, capacity);
    simulate_stream_checkpointed(stream, frontend, job);
  }

  // keep=1, one checkpoint per segment, so every file can be compared. A
  // spare longer than any image starts the ring: the first write cuts it.
  const std::string ring = fresh_dir("recycle_ring");
  fs::create_directories(ring);
  {
    std::ofstream junk(fs::path(ring) / detail::kSpareCheckpointFile,
                       std::ios::binary);
    const std::string block(1 << 16, '\xAB');
    for (int i = 0; i < 64; ++i) junk << block;
  }
  job.checkpoint.dir = ring;
  job.checkpoint.keep = 1;
  std::size_t compared = 0;
  for (std::uint64_t stop = kEvery; stop < t.total_requests();
       stop += kEvery) {
    job.checkpoint.stop_after_requests = stop;
    job.checkpoint.resume = stop > kEvery;
    trace::MemoryRequestStream stream(t, 4096);
    cache::Cache frontend = make_frontend(spec, capacity);
    ASSERT_TRUE(simulate_stream_checkpointed(stream, frontend, job)
                    .stopped_early);
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(ring)) {
      if (entry.path().extension() == ".wckp") files.push_back(entry.path());
    }
    ASSERT_EQ(files.size(), 1u) << "after request " << stop;
    const fs::path twin = fs::path(fresh) / files[0].filename();
    ASSERT_TRUE(fs::exists(twin)) << twin;
    EXPECT_EQ(file_bytes(files[0]), file_bytes(twin))
        << files[0].filename() << " differs from its fresh twin";
    ++compared;
  }
  EXPECT_GE(compared, 5u);
  EXPECT_TRUE(fs::exists(fs::path(ring) / detail::kSpareCheckpointFile));
  fs::remove_all(fresh);
  fs::remove_all(ring);
}

/// Resume reads only checkpoint-*.wckp: neither the spare nor a temp file a
/// crash left behind is a candidate, even when both hold garbage.
TEST(CheckpointRoundTrip, ResumeIgnoresTheSpareAndAStaleTempFile) {
  const trace::Trace t = recorded_trace();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");
  const SimulatorOptions options;

  trace::MemoryRequestStream s0(t, 4096);
  cache::Cache f0 = make_frontend(spec, capacity);
  const SimResult baseline = plain_stream(s0, f0, {.options = options});

  const std::string dir = fresh_dir("resume_ignores");
  StreamCheckpointJob job;
  job.options = options;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 1000;
  job.checkpoint.keep = 1;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";
  job.checkpoint.stop_after_requests = 3000;
  {
    trace::MemoryRequestStream stream(t, 4096);
    cache::Cache frontend = make_frontend(spec, capacity);
    ASSERT_TRUE(
        simulate_stream_checkpointed(stream, frontend, job).stopped_early);
  }
  const fs::path spare = fs::path(dir) / detail::kSpareCheckpointFile;
  ASSERT_TRUE(fs::exists(spare));
  for (const fs::path& path :
       {spare, fs::path(dir) / "checkpoint-00000000000000009000.wckp.tmp"}) {
    fs::remove(path);
    std::ofstream(path, std::ios::binary) << "WCKP garbage";
  }

  job.checkpoint.stop_after_requests = 0;
  job.checkpoint.resume = true;
  trace::MemoryRequestStream stream(t, 4096);
  cache::Cache frontend = make_frontend(spec, capacity);
  const CheckpointedRun done =
      simulate_stream_checkpointed(stream, frontend, job);
  EXPECT_EQ(done.resumed_from, 3000u);
  EXPECT_TRUE(checkpoint_resume_diagnostics().empty());
  expect_same_result(baseline, done.result, "resume past spare and temp");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace webcache::sim
