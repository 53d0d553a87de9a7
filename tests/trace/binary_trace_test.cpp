#include "trace/binary_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trace/streaming_trace.hpp"

namespace webcache::trace {
namespace {

Trace sample_trace() {
  Trace t;
  Request r1;
  r1.timestamp_ms = 100;
  r1.document = 0xDEADBEEF;
  r1.doc_class = DocumentClass::kImage;
  r1.status = 200;
  r1.document_size = 5000;
  r1.transfer_size = 5000;
  Request r2;
  r2.timestamp_ms = 250;
  r2.document = 0xCAFE;
  r2.doc_class = DocumentClass::kMultiMedia;
  r2.status = 206;
  r2.document_size = 1000000;
  r2.transfer_size = 400000;
  t.requests = {r1, r2};
  return t;
}

TEST(BinaryTrace, RoundTrip) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_binary_trace(buf, original);
  const Trace loaded = read_binary_trace(buf);
  ASSERT_EQ(loaded.requests.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.requests[i].timestamp_ms, original.requests[i].timestamp_ms);
    EXPECT_EQ(loaded.requests[i].document, original.requests[i].document);
    EXPECT_EQ(loaded.requests[i].doc_class, original.requests[i].doc_class);
    EXPECT_EQ(loaded.requests[i].status, original.requests[i].status);
    EXPECT_EQ(loaded.requests[i].document_size,
              original.requests[i].document_size);
    EXPECT_EQ(loaded.requests[i].transfer_size,
              original.requests[i].transfer_size);
  }
}

TEST(BinaryTrace, EmptyTraceRoundTrip) {
  std::stringstream buf;
  write_binary_trace(buf, Trace{});
  EXPECT_TRUE(read_binary_trace(buf).requests.empty());
}

TEST(BinaryTrace, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOPE-this-is-not-a-trace";
  EXPECT_THROW(read_binary_trace(buf), std::runtime_error);
}

TEST(BinaryTrace, TruncationDetected) {
  std::stringstream buf;
  write_binary_trace(buf, sample_trace());
  std::string data = buf.str();
  data.resize(data.size() - 12);
  std::stringstream cut(data);
  EXPECT_THROW(read_binary_trace(cut), std::runtime_error);
}

TEST(BinaryTrace, CorruptionDetectedByChecksum) {
  std::stringstream buf;
  write_binary_trace(buf, sample_trace());
  std::string data = buf.str();
  data[20] ^= 0x01;  // flip one record bit
  std::stringstream corrupted(data);
  EXPECT_THROW(read_binary_trace(corrupted), std::runtime_error);
}

std::string diagnostic_for(const std::string& data) {
  std::stringstream in(data);
  try {
    read_binary_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return std::string();
}

TEST(BinaryTrace, DiagnosticsNameRecordIndexAndByteOffset) {
  // Regression for the load diagnostics: each corruption mode must name
  // where the file went bad, so multi-gigabyte traces can be triaged with a
  // hex dump instead of a bisection. sample_trace() has two 43-byte
  // records after the 16-byte header, then a 24-byte v5 tail (no size
  // changes), so the trailer sits at byte 126.
  std::stringstream buf;
  write_binary_trace(buf, sample_trace());
  const std::string good = buf.str();

  // Truncation inside record 1.
  std::string cut = good.substr(0, 16 + 43 + 10);
  std::string what = diagnostic_for(cut);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("record 1 of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 59"), std::string::npos) << what;

  // Invalid document class in record 1 (class byte at +24 into the record).
  std::string bad_class = good;
  bad_class[16 + 43 + 24] = 42;
  what = diagnostic_for(bad_class);
  EXPECT_NE(what.find("invalid document class 42"), std::string::npos) << what;
  EXPECT_NE(what.find("record 1 of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 59"), std::string::npos) << what;

  // Checksum mismatch: flipped payload bit, offset of the trailer named.
  std::string flipped = good;
  flipped[16 + 5] ^= 0x01;
  what = diagnostic_for(flipped);
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 126"), std::string::npos) << what;

  // Missing checksum trailer.
  std::string no_trailer = good.substr(0, good.size() - 8);
  what = diagnostic_for(no_trailer);
  EXPECT_NE(what.find("truncated checksum trailer"), std::string::npos)
      << what;
  EXPECT_NE(what.find("byte offset 126"), std::string::npos) << what;

  // Unsupported version names the version it saw.
  std::string future = good;
  future[4] = 9;
  what = diagnostic_for(future);
  EXPECT_NE(what.find("unsupported version 9"), std::string::npos) << what;
}

TEST(BinaryTrace, InvalidClassRejected) {
  std::stringstream buf;
  Trace t = sample_trace();
  write_binary_trace(buf, t);
  std::string data = buf.str();
  // The class byte of record 0 sits after the 16-byte header plus the
  // timestamp (8), document (8), dense id (4) and client (4) fields.
  data[16 + 24] = 17;
  std::stringstream corrupted(data);
  EXPECT_THROW(read_binary_trace(corrupted), std::runtime_error);
}

TEST(BinaryTrace, ClientRoundTrips) {
  Trace t = sample_trace();
  t.requests[0].client = 0xDEAD;
  t.requests[1].client = 7;
  std::stringstream buf;
  write_binary_trace(buf, t);
  const Trace loaded = read_binary_trace(buf);
  EXPECT_EQ(loaded.requests[0].client, 0xDEADu);
  EXPECT_EQ(loaded.requests[1].client, 7u);
}

TEST(BinaryTrace, ReadsVersionOneFiles) {
  // Hand-craft a version-1 file (records without the client field) and
  // verify the reader still accepts it, defaulting client to 0.
  std::string data;
  auto append = [&](const void* p, std::size_t n) {
    data.append(static_cast<const char*>(p), n);
  };
  data.append("WCT1", 4);
  const std::uint32_t version = 1;
  append(&version, 4);
  const std::uint64_t count = 1;
  append(&count, 8);

  std::string record;
  auto rec = [&](const void* p, std::size_t n) {
    record.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t ts = 123, doc = 456, doc_size = 1000, transfer = 900;
  const std::uint8_t cls = 1;  // HTML
  const std::uint16_t status = 200;
  rec(&ts, 8);
  rec(&doc, 8);
  rec(&cls, 1);
  rec(&status, 2);
  rec(&doc_size, 8);
  rec(&transfer, 8);
  data += record;

  // FNV-1a over the record bytes, as the writer computes it.
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : record) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  append(&h, 8);

  std::stringstream in(data);
  const Trace loaded = read_binary_trace(in);
  ASSERT_EQ(loaded.requests.size(), 1u);
  EXPECT_EQ(loaded.requests[0].timestamp_ms, 123u);
  EXPECT_EQ(loaded.requests[0].document, 456u);
  EXPECT_EQ(loaded.requests[0].client, 0u);
  EXPECT_EQ(loaded.requests[0].doc_class, DocumentClass::kHtml);
  EXPECT_EQ(loaded.requests[0].transfer_size, 900u);
}

TEST(BinaryTrace, UnknownFutureVersionRejected) {
  std::stringstream buf;
  write_binary_trace(buf, sample_trace());
  std::string data = buf.str();
  data[4] = 9;  // version byte
  std::stringstream in(data);
  EXPECT_THROW(read_binary_trace(in), std::runtime_error);
}

TEST(BinaryTrace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/webcache_trace_test.bin";
  write_binary_trace_file(path, sample_trace());
  const Trace loaded = read_binary_trace_file(path);
  EXPECT_EQ(loaded.requests.size(), 2u);
  std::remove(path.c_str());
}

TEST(BinaryTrace, RewriteInPlaceLeavesExactlyTheNewTrace) {
  // The file writer overwrites an existing file in place: a shorter trace
  // must cut the old tail, a longer one extend the file.
  const std::string path = testing::TempDir() + "/webcache_trace_rewrite.bin";
  std::remove(path.c_str());
  Trace longer = sample_trace();
  for (int i = 0; i < 50; ++i) longer.requests.push_back(longer.requests[0]);
  Trace shorter = sample_trace();
  for (const Trace* t : {&longer, &shorter, &longer}) {
    write_binary_trace_file(path, *t);
    std::stringstream expected;
    write_binary_trace(expected, *t);
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes, expected.str()) << t->requests.size() << " requests";
    EXPECT_EQ(read_binary_trace_file(path).requests.size(),
              t->requests.size());
  }
  std::remove(path.c_str());
}

TEST(BinaryTrace, FileAndStreamLoadersAgree) {
  // The file loader and the istream loader must produce identical traces
  // from the same bytes.
  Trace t = sample_trace();
  t.requests[0].client = 99;
  const std::string path = testing::TempDir() + "/webcache_trace_agree.bin";
  write_binary_trace_file(path, t);
  const Trace from_file = read_binary_trace_file(path);
  std::ifstream in(path, std::ios::binary);
  const Trace from_stream = read_binary_trace(in);
  std::remove(path.c_str());
  ASSERT_EQ(from_file.requests.size(), from_stream.requests.size());
  for (std::size_t i = 0; i < from_file.requests.size(); ++i) {
    EXPECT_EQ(from_file.requests[i].timestamp_ms,
              from_stream.requests[i].timestamp_ms);
    EXPECT_EQ(from_file.requests[i].document, from_stream.requests[i].document);
    EXPECT_EQ(from_file.requests[i].client, from_stream.requests[i].client);
    EXPECT_EQ(from_file.requests[i].doc_class,
              from_stream.requests[i].doc_class);
    EXPECT_EQ(from_file.requests[i].transfer_size,
              from_stream.requests[i].transfer_size);
  }
}

std::string file_diagnostic_for(const std::string& data) {
  // Per test: CTest runs the tests that share this helper side by side.
  const std::string path =
      testing::TempDir() + "/webcache_trace_diag_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  {
    // Removed first, so the rewrite starts a new file: truncating one in
    // place has cost milliseconds a call (ext4 mounted with `discard`).
    std::remove(path.c_str());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  std::string what;
  try {
    read_binary_trace_file(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(BinaryTrace, FileLoaderPreservesCorruptionDiagnostics) {
  // The buffered loader decodes from a flat image, but the triage story is
  // unchanged: the same corruption modes must name the same record indices
  // and byte offsets as the streaming reader.
  std::stringstream buf;
  write_binary_trace(buf, sample_trace());
  const std::string good = buf.str();

  std::string what = file_diagnostic_for(good.substr(0, 16 + 43 + 10));
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("record 1 of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 59"), std::string::npos) << what;

  std::string bad_class = good;
  bad_class[16 + 43 + 24] = 42;
  what = file_diagnostic_for(bad_class);
  EXPECT_NE(what.find("invalid document class 42"), std::string::npos) << what;
  EXPECT_NE(what.find("record 1 of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 59"), std::string::npos) << what;

  std::string flipped = good;
  flipped[16 + 5] ^= 0x01;
  what = file_diagnostic_for(flipped);
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 126"), std::string::npos) << what;

  what = file_diagnostic_for(good.substr(0, good.size() - 8));
  EXPECT_NE(what.find("truncated checksum trailer"), std::string::npos)
      << what;
  EXPECT_NE(what.find("byte offset 126"), std::string::npos) << what;

  std::string future = good;
  future[4] = 9;
  what = file_diagnostic_for(future);
  EXPECT_NE(what.find("unsupported version 9"), std::string::npos) << what;

  what = file_diagnostic_for("NOPE-this-is-not-a-trace");
  EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
}

TEST(BinaryTrace, CorruptHugeCountIsATruncationNotAnAllocation) {
  // A valid 3-record file whose header claims 10^15 records. No loader may
  // size anything from that count: each must read what the file holds and
  // name the truncation (reserving 10^15 records threw std::bad_alloc).
  Trace t = sample_trace();
  t.requests.push_back(t.requests[0]);
  std::stringstream buf;
  write_binary_trace(buf, t);
  std::string data = buf.str();
  const std::uint64_t claimed = 1000000000000000ULL;
  std::memcpy(data.data() + 8, &claimed, sizeof(claimed));
  const std::string expected =
      "truncated at record 3 of 1000000000000000 (byte offset 145)";

  EXPECT_NE(diagnostic_for(data).find(expected), std::string::npos)
      << diagnostic_for(data);
  EXPECT_NE(file_diagnostic_for(data).find(expected), std::string::npos)
      << file_diagnostic_for(data);

  const std::string path = testing::TempDir() + "/webcache_trace_huge.bin";
  {
    std::remove(path.c_str());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  // The largest chunk asks for the whole claimed count at once.
  for (const std::size_t chunk :
       {std::size_t{1} << 16, std::numeric_limits<std::size_t>::max()}) {
    std::string streamed;
    try {
      StreamingTraceReader reader(path, chunk);
      EXPECT_EQ(reader.total_requests(), claimed);
      while (!reader.next_chunk().empty()) {
      }
    } catch (const std::runtime_error& e) {
      streamed = e.what();
    }
    EXPECT_NE(streamed.find(expected), std::string::npos)
        << "chunk " << chunk << ": " << streamed;
  }

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  std::remove(path.c_str());
  EXPECT_EQ(recovered.requests.size(), 3u);
  EXPECT_EQ(report.truncated_records, claimed - 3);
  EXPECT_TRUE(report.missing_trailer);
  ASSERT_FALSE(report.first_errors.empty());
  EXPECT_EQ(report.first_errors[0], expected);
}

TEST(BinaryTrace, MissingFileThrows) {
  EXPECT_THROW(read_binary_trace_file("/nonexistent/path/x.bin"),
               std::runtime_error);
}

TEST(TraceAggregates, RequestedBytesSumsTransfers) {
  EXPECT_EQ(sample_trace().requested_bytes(), 405000u);
}

TEST(TraceAggregates, DistinctDocuments) {
  Trace t = sample_trace();
  EXPECT_EQ(t.distinct_documents(), 2u);
  t.requests.push_back(t.requests[0]);
  EXPECT_EQ(t.distinct_documents(), 2u);
}

TEST(TraceAggregates, OverallSizeUsesLastDocumentSize) {
  Trace t = sample_trace();
  // Re-request document 1 with a modified size; the overall size must use
  // the most recent document size.
  Request again = t.requests[0];
  again.document_size = 6000;
  again.transfer_size = 6000;
  t.requests.push_back(again);
  EXPECT_EQ(t.overall_size_bytes(), 6000u + 1000000u);
}

}  // namespace
}  // namespace webcache::trace
