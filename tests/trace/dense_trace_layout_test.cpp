// What a DenseTrace holds: 16-byte replay records allocated once at their
// final size, the Overall Size and largest transfer computed while they
// are built, and the client column only when asked for.
//
// The memory of a materialized replay is mostly these records, so the
// record size and the capacity of the vector are pinned here, for every
// file version the loader reads. The summary values are checked against
// the full trace's own aggregates, on traces where documents change size,
// so that a sum of each document's first size instead of its last fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/wct1.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/preprocess.hpp"
#include "trace/squid_log_writer.hpp"

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

namespace webcache::trace {
namespace {

std::string golden_path() {
  return std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct";
}

Trace dfn_trace() {
  return synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
      .generate();
}

std::string write_temp(const std::string& data, const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return path;
}

std::uint64_t largest_transfer(const Trace& t) {
  std::uint64_t largest = 0;
  for (const Request& r : t.requests) {
    largest = std::max(largest, r.transfer_size);
  }
  return largest;
}

/// Each document's *first* document size, summed: differs from the
/// Overall Size exactly when some document changes size later.
std::uint64_t first_size_sum(const Trace& t) {
  const DenseTrace ids = densify(t);
  std::vector<char> seen(ids.document_count(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    const std::uint32_t d = ids.records[i].document;
    if (seen[d] == 0) total += t.requests[i].document_size;
    seen[d] = 1;
  }
  return total;
}

void expect_summary_of(const DenseTrace& dense, const Trace& full,
                       const std::string& label) {
  EXPECT_EQ(dense.overall_size_bytes(), full.overall_size_bytes()) << label;
  EXPECT_EQ(dense.max_transfer_size(), largest_transfer(full)) << label;
  EXPECT_EQ(dense.total_requests(), full.total_requests()) << label;
}

TEST(DenseTraceLayout, RecordIsSixteenBytes) {
  EXPECT_EQ(sizeof(ReplayRecord), 16u);
}

TEST(DenseTraceLayout, LoadedRecordsHaveNoSpareCapacity) {
  const Trace source = dfn_trace();
  const std::string v3 =
      write_temp(wct1::encode_v3(source), "layout_v3.wct");
  const std::string v4 = testing::TempDir() + "/layout_v4.wct";
  write_binary_trace_file(v4, source);
  for (const std::string& path : {golden_path(), v3, v4}) {
    const DenseTrace dense = read_dense_trace_file(path);
    EXPECT_GT(dense.records.size(), 0u) << path;
    EXPECT_EQ(dense.records.capacity(), dense.records.size()) << path;
    const DenseTrace with_clients =
        read_dense_trace_file(path, ClientColumn::kLoad);
    EXPECT_EQ(with_clients.clients.capacity(), with_clients.clients.size())
        << path;
  }
  std::remove(v3.c_str());
  std::remove(v4.c_str());
}

TEST(DenseTraceLayout, SummaryMatchesTheFullTrace) {
  // One document grows, one shrinks, one never changes.
  Trace hand;
  const auto req = [](DocumentId doc, std::uint64_t size) {
    Request r;
    r.document = doc;
    r.document_size = size;
    r.transfer_size = size / 2;
    return r;
  };
  hand.requests = {req(7, 100), req(8, 50), req(7, 300), req(9, 20),
                   req(8, 40), req(7, 200)};
  ASSERT_NE(first_size_sum(hand), hand.overall_size_bytes());
  expect_summary_of(densify(hand), hand, "hand-built");

  const Trace source = dfn_trace();
  ASSERT_NE(first_size_sum(source), source.overall_size_bytes())
      << "the generated trace must change some document's size";
  expect_summary_of(densify(source), source, "densify");
  const std::string v4 = testing::TempDir() + "/layout_summary_v4.wct";
  write_binary_trace_file(v4, source);
  expect_summary_of(read_dense_trace_file(v4), source, "v4 file");
  std::remove(v4.c_str());

  const Trace golden = read_binary_trace_file(golden_path());
  expect_summary_of(read_dense_trace_file(golden_path()), golden,
                    "golden v2 file");
}

TEST(DenseTraceLayout, SquidLogSummaryMatchesThePreprocessedTrace) {
  // The CLI's path for a Squid log: preprocess, then densify.
  std::stringstream log;
  write_squid_log(log, dfn_trace());
  const Trace preprocessed = preprocess_squid_log(log);
  ASSERT_GT(preprocessed.total_requests(), 0u);
  expect_summary_of(densify(preprocessed), preprocessed, "squid log");
}

TEST(DenseTraceLayout, ClientColumnMatchesTheFullTrace) {
  const Trace source = dfn_trace();
  const std::string v4 = testing::TempDir() + "/layout_clients_v4.wct";
  write_binary_trace_file(v4, source);
  std::vector<std::uint32_t> clients;
  for (const Request& r : source.requests) clients.push_back(r.client);
  ASSERT_TRUE(std::any_of(clients.begin(), clients.end(),
                          [](std::uint32_t c) { return c != 0; }));

  EXPECT_EQ(read_dense_trace_file(v4, ClientColumn::kLoad).clients, clients);
  EXPECT_EQ(densify(source, ClientColumn::kLoad).clients, clients);
  EXPECT_TRUE(read_dense_trace_file(v4).clients.empty());
  std::remove(v4.c_str());
}

}  // namespace
}  // namespace webcache::trace
