// WCT1 v3, v4 and v5 files of the same trace must be the same workload to
// every stream consumer: a v4 or v5 stream's documents are numbered from
// the ids the file stores, a v3 stream's by interning, and the numberings
// agree; a v5 file's size-change flags and tail are checked and dropped.
// So a checkpointed GD*(packet) stream gives an equal SimResult and
// byte-identical checkpoint files on every encoding, a checkpoint written
// on one resumes on another, and the exact (rate 1) sampled sweep gives
// the same curve.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/checkpoint.hpp"
#include "sim/sampled_sweep.hpp"
#include "support/result_eq.hpp"
#include "support/wct1.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/streaming_trace.hpp"

namespace webcache::sim {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvery = 2500;

/// The v3, v4 and v5 encodings of one small DFN trace.
class TraceVersions : public testing::Test {
 protected:
  void SetUp() override {
    source_ = synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
                  .generate();
    capacity_ = source_.overall_size_bytes() / 100;
    // CTest runs the tests of this suite side by side: each gets its own
    // files and directories.
    prefix_ = testing::TempDir() + "/webcache_versions_" +
              testing::UnitTest::GetInstance()->current_test_info()->name();
    v3_ = prefix_ + "_v3.wct";
    v4_ = prefix_ + "_v4.wct";
    v5_ = prefix_ + "_v5.wct";
    for (const auto& [path, version] : {std::pair{v3_, 3u}, {v4_, 4u}}) {
      std::remove(path.c_str());
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::string bytes = trace::wct1::encode(source_, version);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    trace::write_binary_trace_file(v5_, source_);
  }

  void TearDown() override {
    std::remove(v3_.c_str());
    std::remove(v4_.c_str());
    std::remove(v5_.c_str());
  }

  /// A GD*(packet) stream over `path` (chunks of 1000, so batches straddle
  /// chunk boundaries), checkpointing every kEvery requests into `dir`.
  CheckpointedRun stream(const std::string& path, const std::string& dir,
                         bool resume = false, std::uint64_t stop = 0) const {
    trace::StreamingTraceReader reader(path, 1000);
    StreamCheckpointJob job;
    job.checkpoint.dir = dir;
    job.checkpoint.every = kEvery;
    job.checkpoint.keep = 1000;
    job.checkpoint.resume = resume;
    job.checkpoint.trace_source = "dfn-0.002";
    job.checkpoint.stop_after_requests = stop;
    return simulate_stream_checkpointed(
        reader, capacity_, cache::policy_spec_from_name("GD*(packet)"), job);
  }

  std::string fresh_dir(const std::string& name) const {
    const std::string dir = prefix_ + "_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static std::map<std::string, std::string> files_of(const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] = {
          std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
    return files;
  }

  trace::Trace source_;
  std::uint64_t capacity_ = 0;
  std::string prefix_;
  std::string v3_;
  std::string v4_;
  std::string v5_;
};

TEST_F(TraceVersions, CheckpointedStreamsMatchByteForByte) {
  const std::string dir3 = fresh_dir("v3");
  const CheckpointedRun a = stream(v3_, dir3);
  EXPECT_EQ(a.checkpoints_written, source_.total_requests() / kEvery);
  const auto files3 = files_of(dir3);
  ASSERT_EQ(files3.size(), a.checkpoints_written);
  for (const auto& [path, label] : {std::pair{v4_, "v4"}, {v5_, "v5"}}) {
    const std::string dir = fresh_dir(label);
    const CheckpointedRun b = stream(path, dir);
    expect_same_result(a.result, b.result, std::string("v3 vs ") + label);
    EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
    const auto files = files_of(dir);
    ASSERT_EQ(files3.size(), files.size());
    for (const auto& [name, bytes] : files3) {
      ASSERT_TRUE(files.count(name)) << name;
      EXPECT_TRUE(files.at(name) == bytes) << name << " differs in " << label;
    }
    fs::remove_all(dir);
  }
  fs::remove_all(dir3);
}

TEST_F(TraceVersions, CheckpointOfAVersionThreeStreamResumesOnVersionFour) {
  const CheckpointedRun whole = stream(v4_, fresh_dir("whole"));
  for (const auto& [from, to] : {std::pair{v3_, v4_}, std::pair{v4_, v3_},
                                 std::pair{v5_, v3_}, std::pair{v4_, v5_}}) {
    const std::string dir = fresh_dir("resume");
    const CheckpointedRun first = stream(from, dir, false, 2 * kEvery + 17);
    ASSERT_TRUE(first.stopped_early);
    const CheckpointedRun rest = stream(to, dir, true);
    EXPECT_EQ(rest.resumed_from, 2 * kEvery + 17);
    expect_same_result(whole.result, rest.result, from + " -> " + to);
    fs::remove_all(dir);
  }
  fs::remove_all(fresh_dir("whole"));
}

TEST_F(TraceVersions, ResumeOnAnotherTraceWithStoredIdsIsRejected) {
  // A checkpoint's ids must cover every stored id the resumed file hands
  // out; a file swapped under the same name and length (every request a
  // new document) breaks that at the first batch, and the replay must
  // refuse it rather than index the cache past its id range.
  const std::string dir = fresh_dir("swap");
  ASSERT_TRUE(stream(v5_, dir, false, 2 * kEvery).stopped_early);
  trace::Trace swapped = source_;
  for (std::size_t i = 0; i < swapped.requests.size(); ++i) {
    swapped.requests[i].document = 0xF0000000 + i;
  }
  trace::write_binary_trace_file(v5_, swapped);
  try {
    stream(v5_, dir, true);
    ADD_FAILURE() << "resume on a swapped trace was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of first-reference order"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST_F(TraceVersions, ExactSampledSweepMatches) {
  SampledSweepConfig config;
  const std::uint64_t largest = trace::densify(source_).max_transfer_size();
  config.capacities = {largest, 2 * largest, 4 * largest};
  config.sample_rate = 1.0;
  const SampledSweep sweep(config);
  trace::StreamingTraceReader r3(v3_, 1000);
  const SampledCurve a = sweep.run(r3);
  ASSERT_TRUE(a.exact);
  for (const std::string& path : {v4_, v5_}) {
    trace::StreamingTraceReader reader(path, 1000);
    const SampledCurve b = sweep.run(reader);
    ASSERT_TRUE(b.exact);
    EXPECT_EQ(a.sampled_documents, b.sampled_documents);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      expect_same_result(a.results[i], b.results[i],
                         path + " capacity " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace webcache::sim
