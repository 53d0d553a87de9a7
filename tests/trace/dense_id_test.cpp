// WCT1 v4 dense ids: the decoder must hold every stored id to the
// first-reference rule, and read_dense_trace_file must give exactly what
// densify(read_binary_trace_file) gives.
//
// A file that breaks the rule has a valid checksum here, so only the
// dense-id check can reject it. Every strict loader must throw the same
// diagnostic before it hands the bad id to anything that sizes an array by
// it; the stream case runs all the way into a replay, whose id-indexed
// vectors would otherwise be sized by the id.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/streaming.hpp"
#include "support/dense_eq.hpp"
#include "support/wct1.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/streaming_trace.hpp"

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

namespace webcache::trace {
namespace {

/// Five requests over four documents: A B C A D.
Trace five_requests() {
  Trace t;
  const DocumentId docs[] = {0xA0, 0xB0, 0xC0, 0xA0, 0xD0};
  for (std::uint64_t i = 0; i < 5; ++i) {
    Request r;
    r.timestamp_ms = 10 * i;
    r.document = docs[i];
    r.client = static_cast<std::uint32_t>(i);
    r.doc_class = DocumentClass::kImage;
    r.document_size = r.transfer_size = 1000 + docs[i];
    t.requests.push_back(r);
  }
  return t;
}

std::string write_temp(const std::string& data, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return path;
}

template <typename Load>
std::string diagnostic_of(Load&& load) {
  try {
    load();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(no exception)";
}

/// Every strict loader rejects `data` with exactly `expected`.
void expect_rejected_everywhere(const std::string& data,
                                const std::string& name,
                                const std::string& expected) {
  const std::string path = write_temp(data, name);
  EXPECT_EQ(diagnostic_of([&] { read_binary_trace_file(path); }), expected);
  EXPECT_EQ(diagnostic_of([&] {
              std::stringstream in(data);
              read_binary_trace(in);
            }),
            expected);
  EXPECT_EQ(diagnostic_of([&] { read_dense_trace_file(path); }), expected);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{2}, std::size_t{4096}}) {
    EXPECT_EQ(diagnostic_of([&] {
                StreamingTraceReader reader(path, chunk);
                while (!reader.next_chunk().empty()) {
                }
              }),
              expected)
        << "chunk " << chunk;
    EXPECT_EQ(diagnostic_of([&] {
                StreamingTraceReader reader(path, chunk);
                sim::simulate_stream(reader, 1 << 20,
                                     cache::policy_spec_from_name("LRU"));
              }),
              expected)
        << "replay, chunk " << chunk;
  }
  // The recovering loader ignores dense ids: the records are intact.
  RecoveryReport report;
  EXPECT_EQ(read_binary_trace_file_recovering(path, report).requests.size(),
            5u);
  EXPECT_TRUE(report.clean());
  std::remove(path.c_str());
}

TEST(DenseIdDecoder, FirstRecordWithIdFiveIsRejected) {
  expect_rejected_everywhere(
      wct1::encode(five_requests(), 4, {5, 1, 2, 5, 3}), "dense_id_five.wct",
      "binary trace: dense id 5 out of first-reference order at record 0 of "
      "5 (byte offset 16)");
}

TEST(DenseIdDecoder, FirstRecordWithMaximalIdIsRejected) {
  expect_rejected_everywhere(
      wct1::encode(five_requests(), 4, {0xFFFFFFFFu, 1, 2, 0xFFFFFFFFu, 3}),
      "dense_id_max.wct",
      "binary trace: dense id 4294967295 out of first-reference order at "
      "record 0 of 5 (byte offset 16)");
}

TEST(DenseIdDecoder, SkippedIdInTheMiddleIsRejected) {
  // A B C A D numbered 0 1 3 0 2: record 2 introduces id 3 while only two
  // documents have been seen.
  expect_rejected_everywhere(
      wct1::encode(five_requests(), 4, {0, 1, 3, 0, 2}), "dense_id_skip.wct",
      "binary trace: dense id 3 out of first-reference order at record 2 of "
      "5 (byte offset 102)");
}

TEST(DenseIdDecoder, StreamHandsOutTheStoredIds) {
  const Trace source = five_requests();
  const std::string path =
      write_temp(wct1::encode(source, 4, {0, 1, 2, 0, 3}), "dense_ids.wct");
  StreamingTraceReader reader(path, 2);
  std::vector<std::uint32_t> ids;
  for (auto chunk = reader.next_chunk(); !chunk.empty();
       chunk = reader.next_chunk()) {
    ASSERT_EQ(reader.dense_ids().size(), chunk.size());
    ids.insert(ids.end(), reader.dense_ids().begin(), reader.dense_ids().end());
  }
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 0, 3}));
  // A v3 file stores none.
  const std::string v3 = write_temp(wct1::encode_v3(source), "dense_v3.wct");
  StreamingTraceReader old(v3, 2);
  EXPECT_FALSE(old.next_chunk().empty());
  EXPECT_TRUE(old.dense_ids().empty());
  std::remove(path.c_str());
  std::remove(v3.c_str());
}

TEST(DenseTraceFile, GoldenVersionTwoFileMatchesDensify) {
  const std::string golden =
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct";
  expect_same_dense(read_dense_trace_file(golden),
                    densify(read_binary_trace_file(golden)), "golden v2");
}

TEST(DenseTraceFile, VersionThreeAndFourEncodingsMatchDensify) {
  const Trace source =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
          .generate();
  const std::string v3 =
      write_temp(wct1::encode_v3(source), "dense_file_v3.wct");
  const std::string v4 =
      write_temp(wct1::encode(source, 4), "dense_file_v4.wct");

  const DenseTrace expected = densify(source);
  // Documents change size in this trace, so the size-change column that
  // both loaders build is compared on real entries.
  ASSERT_FALSE(expected.previous_sizes.empty());
  expect_same_dense(read_dense_trace_file(v3), expected, "v3");
  expect_same_dense(read_dense_trace_file(v4), expected, "v4");
  expect_same_dense(read_dense_trace_file(v3),
                    densify(read_binary_trace_file(v3)), "v3 through densify");
  expect_same_dense(read_dense_trace_file(v4),
                    densify(read_binary_trace_file(v4)), "v4 through densify");
  const DenseTrace with_clients = densify(source, ClientColumn::kLoad);
  expect_same_dense(read_dense_trace_file(v3, ClientColumn::kLoad),
                    with_clients, "v3 with clients");
  expect_same_dense(read_dense_trace_file(v4, ClientColumn::kLoad),
                    with_clients, "v4 with clients");
  std::remove(v3.c_str());
  std::remove(v4.c_str());
}

TEST(DenseTraceFile, EmptyTrace) {
  const std::string path = testing::TempDir() + "/dense_file_empty.wct";
  write_binary_trace_file(path, Trace{});
  const DenseTrace dense = read_dense_trace_file(path);
  EXPECT_TRUE(dense.records.empty());
  EXPECT_TRUE(dense.original_ids.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::trace
