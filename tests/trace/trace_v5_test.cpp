// WCT1 v5: the writer stores each record's size-changed flag, the
// previous-size column, the Overall Size and the largest transfer, and
// read_dense_trace_file decodes them as stored.
//
// TraceV5Decoder: a file whose flags or tail disagree with its records has
// a valid checksum here, so only the decoder's own check can reject it.
// Every strict loader must throw the same diagnostic, naming the field and
// the record index or byte offset, and none may size anything by a corrupt
// changed_count. The recovering loader ignores flags, and reports a damaged
// tail as a missing trailer while keeping every record.
//
// TraceV5Equivalence: a v5 load equals densify() of the v4 load of the same
// trace, field by field, and replays the same.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "support/dense_eq.hpp"
#include "support/result_eq.hpp"
#include "support/wct1.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/binary_trace_detail.hpp"
#include "trace/dense_trace.hpp"
#include "trace/streaming_trace.hpp"

namespace webcache::trace {
namespace {

Request request(DocumentId document, std::uint64_t document_size,
                std::uint64_t transfer_size, DocumentClass doc_class) {
  Request r;
  r.document = document;
  r.document_size = document_size;
  r.transfer_size = transfer_size;
  r.doc_class = doc_class;
  return r;
}

/// Six requests over three documents, A B A B C A: A is modified (100 ->
/// 150 bytes) at record 2, B's transfer is interrupted (200 -> 120) at
/// record 3. So records 2 and 3 are flagged, the column is {100, 200}, the
/// largest transfer is 300 and the Overall Size 150 + 200 + 300.
Trace six_requests() {
  Trace t;
  t.requests = {request(0xA, 100, 100, DocumentClass::kImage),
                request(0xB, 200, 200, DocumentClass::kHtml),
                request(0xA, 150, 150, DocumentClass::kImage),
                request(0xB, 200, 120, DocumentClass::kHtml),
                request(0xC, 300, 300, DocumentClass::kMultiMedia),
                request(0xA, 150, 150, DocumentClass::kImage)};
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    t.requests[i].timestamp_ms = 10 * i;
    t.requests[i].client = static_cast<std::uint32_t>(i % 2);
  }
  return t;
}

// Byte offsets in six_requests()'s v5 file.
constexpr std::uint64_t kTail = wct1::kHeaderBytes + 6 * wct1::kRecordBytes;
constexpr std::uint64_t kMaxTransferAt = kTail + 8;
constexpr std::uint64_t kChangedCountAt = kTail + 16;
constexpr std::uint64_t kColumnAt = kTail + detail::kTailSummaryBytes;
constexpr std::uint64_t kTrailerAt = kColumnAt + 2 * 8;

/// A temporary path; CTest runs this file's tests side by side, so each
/// test's files carry its name.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         name;
}

std::string write_temp(const std::string& data, const std::string& name) {
  const std::string path = temp_path(name);
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

/// Every strict loader rejects `data` with exactly `expected`; the
/// recovering loader keeps all six records and reports the file clean, or
/// with a missing trailer when `tail_damaged`.
void expect_rejected_everywhere(const std::string& data,
                                const std::string& name,
                                const std::string& expected,
                                bool tail_damaged = false) {
  const std::string path = write_temp(data, name);
  EXPECT_EQ(diagnostic_of([&] { read_binary_trace_file(path); }), expected);
  EXPECT_EQ(diagnostic_of([&] {
              std::stringstream in(data);
              read_binary_trace(in);
            }),
            expected);
  EXPECT_EQ(diagnostic_of([&] { read_dense_trace_file(path); }), expected);
  EXPECT_EQ(diagnostic_of([&] {
              read_dense_trace_file(path, ClientColumn::kLoad);
            }),
            expected);
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
  RecoveryReport report;
  EXPECT_EQ(read_binary_trace_file_recovering(path, report).requests.size(),
            6u);
  EXPECT_EQ(report.missing_trailer, tail_damaged);
  EXPECT_FALSE(report.checksum_mismatch);
  EXPECT_EQ(report.clean(), !tail_damaged);
  std::remove(path.c_str());
}

TEST(TraceV5Decoder, TheWriterStoresTheDerivedFields) {
  const Trace t = six_requests();
  const wct1::V5Fields v5 = wct1::derive_v5(t);
  EXPECT_EQ(v5.flags, (std::vector<bool>{false, false, true, true, false,
                                         false}));
  EXPECT_EQ(v5.previous_sizes, (std::vector<std::uint64_t>{100, 200}));
  EXPECT_EQ(v5.changed_count, 2u);
  EXPECT_EQ(v5.max_transfer, 300u);
  EXPECT_EQ(v5.overall_size, 650u);
  std::ostringstream out;
  write_binary_trace(out, t);
  const std::string bytes = out.str();
  ASSERT_EQ(bytes.size(), kTrailerAt + 8);
  EXPECT_EQ(bytes, wct1::encode(t, 5));
  // The flag is the class byte's top bit; the class stays in the low bits.
  for (std::size_t i = 0; i < t.requests.size(); ++i) {
    const auto cls = static_cast<std::uint8_t>(
        bytes[wct1::kHeaderBytes + i * wct1::kRecordBytes +
              wct1::kClassOffset]);
    EXPECT_EQ(cls & 0x7F, static_cast<int>(t.requests[i].doc_class)) << i;
    EXPECT_EQ((cls & 0x80) != 0, v5.flags[i]) << i;
  }
}

TEST(TraceV5Decoder, FlagOnAFirstReferenceIsRejected) {
  // C's first reference (record 4, dense id 2) flagged, with a column entry
  // for it, so the counts agree and only the first-reference check fires.
  const Trace t = six_requests();
  wct1::V5Fields v5 = wct1::derive_v5(t);
  v5.flags[4] = true;
  v5.changed_count = 3;
  v5.previous_sizes = {100, 200, 999};
  expect_rejected_everywhere(
      wct1::encode(t, 5, {}, &v5), "v5_first_flag.wct",
      "binary trace: size-changed flag on the first reference of dense id 2 "
      "at record 4 of 6 (byte offset 188)");
}

TEST(TraceV5Decoder, FlaggedRecordsDisagreeingWithChangedCountAreRejected) {
  const Trace t = six_requests();
  wct1::V5Fields fewer = wct1::derive_v5(t);
  fewer.flags[3] = false;
  expect_rejected_everywhere(
      wct1::encode(t, 5, {}, &fewer), "v5_fewer_flags.wct",
      "binary trace: tail changed_count 2, but 1 of the 6 records carry the "
      "size-changed flag (byte offset " +
          std::to_string(kChangedCountAt) + ")");
  wct1::V5Fields more = wct1::derive_v5(t);
  more.flags[5] = true;
  expect_rejected_everywhere(
      wct1::encode(t, 5, {}, &more), "v5_more_flags.wct",
      "binary trace: tail changed_count 2, but 3 of the 6 records carry the "
      "size-changed flag (byte offset " +
          std::to_string(kChangedCountAt) + ")");
}

TEST(TraceV5Decoder, MaxTransferDisagreeingWithTheRecordsIsRejected) {
  const Trace t = six_requests();
  wct1::V5Fields v5 = wct1::derive_v5(t);
  v5.max_transfer = 301;
  expect_rejected_everywhere(
      wct1::encode(t, 5, {}, &v5), "v5_max.wct",
      "binary trace: tail max_transfer 301, but the largest transfer of the 6 "
      "records is 300 (byte offset " +
          std::to_string(kMaxTransferAt) + ")");
}

TEST(TraceV5Decoder, ChangedCountAboveTheRecordCountIsRejectedBeforeReading) {
  // A count the records cannot hold is refused before the column is read or
  // sized: a 2^62-entry column would otherwise be a bad_alloc, not this
  // diagnostic.
  const Trace t = six_requests();
  for (const std::uint64_t count : {std::uint64_t{7}, std::uint64_t{1} << 62}) {
    wct1::V5Fields v5 = wct1::derive_v5(t);
    v5.changed_count = count;
    const std::string data = wct1::encode(t, 5, {}, &v5);
    expect_rejected_everywhere(
        data, "v5_count.wct",
        "binary trace: tail changed_count " + std::to_string(count) +
            " exceeds the 6 records (byte offset " +
            std::to_string(kChangedCountAt) + ")",
        /*tail_damaged=*/true);
    const std::string path = write_temp(data, "v5_count_digest.wct");
    EXPECT_THROW(StreamingTraceReader(path).stored_digest(),
                 std::runtime_error);
    std::remove(path.c_str());
  }
}

TEST(TraceV5Decoder, TruncatedTailIsRejectedWithItsOffset) {
  const std::string good = wct1::encode(six_requests(), 5);
  ASSERT_EQ(good.size(), kTrailerAt + 8);
  expect_rejected_everywhere(
      good.substr(0, kTail + 10), "v5_cut_summary.wct",
      "binary trace: truncated tail summary (byte offset " +
          std::to_string(kTail + 10) + ")",
      /*tail_damaged=*/true);
  expect_rejected_everywhere(
      good.substr(0, kColumnAt + 12), "v5_cut_column.wct",
      "binary trace: truncated tail at previous size 1 of 2 (byte offset " +
          std::to_string(kColumnAt + 8) + ")",
      /*tail_damaged=*/true);
  expect_rejected_everywhere(
      good.substr(0, kTrailerAt + 3), "v5_cut_trailer.wct",
      "binary trace: truncated checksum trailer (byte offset " +
          std::to_string(kTrailerAt) + ")",
      /*tail_damaged=*/true);
}

TEST(TraceV5Decoder, AVersionFourClassByteWithTheTopBitIsAnInvalidClass) {
  std::string v4 = wct1::encode(six_requests(), 4);
  v4[wct1::kHeaderBytes + 2 * wct1::kRecordBytes + wct1::kClassOffset] |=
      static_cast<char>(0x80);
  const std::string path = write_temp(v4, "v4_top_bit.wct");
  EXPECT_EQ(diagnostic_of([&] { read_dense_trace_file(path); }),
            "binary trace: invalid document class 128 at record 2 of 6 (byte "
            "offset 102)");
  std::remove(path.c_str());
}

TEST(TraceV5Decoder, RequestLoadersMaskTheFlagAndSkipTheTail) {
  const Trace t = six_requests();
  const std::string bytes = wct1::encode(t, 5);
  const std::string path = write_temp(bytes, "v5_requests.wct");
  const auto expect_source = [&](const std::vector<Request>& got,
                                 const std::string& loader) {
    ASSERT_EQ(got.size(), t.requests.size()) << loader;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].document, t.requests[i].document) << loader << i;
      EXPECT_EQ(got[i].doc_class, t.requests[i].doc_class) << loader << i;
      EXPECT_EQ(got[i].transfer_size, t.requests[i].transfer_size)
          << loader << i;
      EXPECT_EQ(got[i].document_size, t.requests[i].document_size)
          << loader << i;
      EXPECT_EQ(got[i].client, t.requests[i].client) << loader << i;
    }
  };
  expect_source(read_binary_trace_file(path).requests, "file");
  std::stringstream in(bytes);
  expect_source(read_binary_trace(in).requests, "istream");
  RecoveryReport report;
  expect_source(read_binary_trace_file_recovering(path, report).requests,
                "recovering");
  EXPECT_TRUE(report.clean());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}}) {
    StreamingTraceReader reader(path, chunk);
    EXPECT_EQ(reader.version(), 5u);
    std::vector<Request> streamed;
    std::vector<std::uint32_t> ids;
    for (auto c = reader.next_chunk(); !c.empty(); c = reader.next_chunk()) {
      streamed.insert(streamed.end(), c.begin(), c.end());
      ids.insert(ids.end(), reader.dense_ids().begin(),
                 reader.dense_ids().end());
    }
    expect_source(streamed, "stream");
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 0, 1, 2, 0}));
    // The digest follows the column.
    std::uint64_t trailer = 0;
    std::memcpy(&trailer, bytes.data() + kTrailerAt, sizeof(trailer));
    EXPECT_EQ(reader.stored_digest(), trailer);
  }
  std::remove(path.c_str());
}

/// `requests` requests over `documents` documents, each of a fixed class;
/// a request modifies its document (by under or over 5 %) with
/// probability 0.05 and is interrupted with probability 0.1.
Trace random_trace(std::uint64_t seed, std::size_t requests,
                   std::size_t documents) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> sizes(documents);
  for (std::uint64_t& size : sizes) size = 100 + rng() % 50'000;
  Trace t;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t d = rng() % documents;
    if (rng() % 20 == 0) {
      sizes[d] = rng() % 2 == 0 ? sizes[d] + sizes[d] / 50 + 1
                                : sizes[d] * 2 + 7;
    }
    Request r = request(0x5EED0000 + d * 977, sizes[d], sizes[d],
                        static_cast<DocumentClass>(d % kDocumentClassCount));
    if (rng() % 10 == 0) r.transfer_size = rng() % r.document_size;
    r.timestamp_ms = i;
    r.client = static_cast<std::uint32_t>(rng() % 7);
    t.requests.push_back(r);
  }
  return t;
}

/// The v5 load of `source` equals densify() of its v4 load, with and
/// without clients, and replays the same; the writer's bytes are the
/// encoder's.
void expect_v5_equals_v4(const Trace& source, const std::string& label) {
  const std::string v4 =
      write_temp(wct1::encode(source, 4), "v5_equiv_v4.wct");
  const std::string v5 = temp_path("v5_equiv_v5.wct");
  write_binary_trace_file(v5, source);
  for (const ClientColumn clients :
       {ClientColumn::kSkip, ClientColumn::kLoad}) {
    const DenseTrace expected = densify(read_binary_trace_file(v4), clients);
    const DenseTrace stored = read_dense_trace_file(v5, clients);
    expect_same_dense(stored, expected, label + " v5 vs densify(v4)");
    expect_same_dense(stored, read_dense_trace_file(v4, clients),
                      label + " v5 vs the v4 load");
  }
  const DenseTrace a = read_dense_trace_file(v4);
  const DenseTrace b = read_dense_trace_file(v5);
  for (const char* policy : {"LRU", "GD*(1)", "GDS(packet)"}) {
    const std::uint64_t capacity = a.overall_size_bytes() / 20;
    sim::expect_same_result(
        sim::simulate(a, capacity, cache::policy_spec_from_name(policy)),
        sim::simulate(b, capacity, cache::policy_spec_from_name(policy)),
        label + " " + policy);
  }
  std::ifstream in(v5, std::ios::binary);
  const std::string written{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  EXPECT_TRUE(written == wct1::encode(source, 5)) << label;
  std::remove(v4.c_str());
  std::remove(v5.c_str());
}

TEST(TraceV5Equivalence, RandomTracesWithModificationsAndInterrupts) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Trace t = random_trace(seed, 5000, 40 + 300 * (seed % 2));
    ASSERT_GT(wct1::derive_v5(t).changed_count, 100u);
    expect_v5_equals_v4(t, "seed " + std::to_string(seed));
  }
}

TEST(TraceV5Equivalence, GeneratedDfnAndRtpTraces) {
  for (const auto& profile :
       {synth::WorkloadProfile::DFN(), synth::WorkloadProfile::RTP()}) {
    const Trace t = synth::TraceGenerator(profile.scaled(0.005)).generate();
    ASSERT_GT(wct1::derive_v5(t).changed_count, 0u);
    expect_v5_equals_v4(t, "generated");
  }
}

TEST(TraceV5Equivalence, EmptyTrace) {
  expect_v5_equals_v4(Trace{}, "empty");
  const std::string path = temp_path("v5_empty.wct");
  write_binary_trace_file(path, Trace{});
  const DenseTrace dense = read_dense_trace_file(path);
  EXPECT_TRUE(dense.records.empty());
  EXPECT_EQ(dense.overall_size_bytes(), 0u);
  EXPECT_EQ(dense.max_transfer_size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::trace
