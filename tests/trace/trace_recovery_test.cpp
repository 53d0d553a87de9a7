// The permissive WCT1 loader (--recover): damaged records are skipped and a
// truncated tail dropped, with every incident reported by record index and
// byte offset; a clean file must load exactly like the strict reader, and
// an unrecoverable header (no magic, wrong version) must still throw.
#include "trace/binary_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/wct1.hpp"

namespace webcache::trace {
namespace {

Trace sample_trace(std::size_t count) {
  Trace t;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    r.timestamp_ms = 100 + 10 * i;
    r.document = 0x1000 + i;
    r.client = static_cast<std::uint32_t>(i % 7);
    r.doc_class = static_cast<DocumentClass>(i % kDocumentClassCount);
    r.status = 200;
    r.document_size = 1000 + i;
    r.transfer_size = 1000 + i;
    t.requests.push_back(r);
  }
  return t;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  // Removed first, so the rewrite starts a new file: truncating one in
  // place has cost milliseconds a call (ext4 mounted with `discard`).
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The v4 record layout (support/wct1.hpp), after the 16-byte header.
using wct1::kClassOffset;
using wct1::kHeaderBytes;
using wct1::kRecordBytes;

TEST(TraceRecovery, CleanFileMatchesStrictLoader) {
  const std::string path = temp_path("recovery_clean.wct");
  write_binary_trace_file(path, sample_trace(50));

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.recovered, 50u);
  EXPECT_TRUE(report.first_errors.empty());

  const Trace strict = read_binary_trace_file(path);
  ASSERT_EQ(recovered.requests.size(), strict.requests.size());
  for (std::size_t i = 0; i < strict.requests.size(); ++i) {
    EXPECT_EQ(recovered.requests[i].document, strict.requests[i].document);
    EXPECT_EQ(recovered.requests[i].doc_class, strict.requests[i].doc_class);
  }
  std::remove(path.c_str());
}

TEST(TraceRecovery, InvalidClassByteSkippedWithIndexAndOffset) {
  const std::string path = temp_path("recovery_class.wct");
  write_binary_trace_file(path, sample_trace(50));

  std::vector<char> bytes = file_bytes(path);
  const std::size_t rec = 7;
  // Diagnostics point at the start of the damaged record.
  const std::size_t offset = kHeaderBytes + rec * kRecordBytes;
  bytes[offset + kClassOffset] = static_cast<char>(0xFF);
  write_bytes(path, bytes);

  // Strict loader refuses the whole file.
  EXPECT_THROW(read_binary_trace_file(path), std::runtime_error);

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  EXPECT_EQ(recovered.requests.size(), 49u);
  EXPECT_EQ(report.recovered, 49u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.truncated_records, 0u);
  // The payload changed, so the trailer no longer matches — reported, not
  // thrown.
  EXPECT_TRUE(report.checksum_mismatch);
  EXPECT_FALSE(report.clean());
  ASSERT_FALSE(report.first_errors.empty());
  EXPECT_NE(report.first_errors[0].find("record 7"), std::string::npos)
      << report.first_errors[0];
  EXPECT_NE(report.first_errors[0].find(std::to_string(offset)),
            std::string::npos)
      << report.first_errors[0];
  // The surviving records are intact and in order.
  EXPECT_EQ(recovered.requests[6].document, 0x1000u + 6);
  EXPECT_EQ(recovered.requests[7].document, 0x1000u + 8);  // 7 was dropped
  std::remove(path.c_str());
}

TEST(TraceRecovery, TruncatedTailDroppedAndReported) {
  const std::string path = temp_path("recovery_trunc.wct");
  write_binary_trace_file(path, sample_trace(50));

  std::vector<char> bytes = file_bytes(path);
  // Chop the trailer, the tail and the last two and a half records.
  bytes.resize(kHeaderBytes + 47 * kRecordBytes + kRecordBytes / 2);
  write_bytes(path, bytes);

  EXPECT_THROW(read_binary_trace_file(path), std::runtime_error);

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  EXPECT_EQ(recovered.requests.size(), 47u);
  EXPECT_EQ(report.recovered, 47u);
  EXPECT_EQ(report.truncated_records, 3u);
  EXPECT_TRUE(report.missing_trailer);
  EXPECT_FALSE(report.clean());
  ASSERT_FALSE(report.first_errors.empty());
  EXPECT_NE(report.first_errors[0].find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecovery, FlippedPayloadBitIsAChecksumIncidentOnly) {
  const std::string path = temp_path("recovery_checksum.wct");
  write_binary_trace_file(path, sample_trace(50));

  std::vector<char> bytes = file_bytes(path);
  // Flip a size byte: the record still decodes (class byte untouched), so
  // only the trailer disagrees.
  bytes[kHeaderBytes + 3 * kRecordBytes + 29] ^= 0x01;
  write_bytes(path, bytes);

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  EXPECT_EQ(recovered.requests.size(), 50u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(report.checksum_mismatch);
  EXPECT_FALSE(report.clean());
  std::remove(path.c_str());
}

TEST(TraceRecovery, UnrecoverableHeaderStillThrows) {
  const std::string path = temp_path("recovery_header.wct");

  // Bad magic: there is no format to recover.
  write_bytes(path, {'N', 'O', 'P', 'E', 0, 0, 0, 0});
  RecoveryReport report;
  EXPECT_THROW(read_binary_trace_file_recovering(path, report),
               std::runtime_error);

  // Header shorter than 16 bytes.
  write_bytes(path, {'W', 'C', 'T', '1'});
  EXPECT_THROW(read_binary_trace_file_recovering(path, report),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceRecovery, ManyDamagedRecordsCapDiagnostics) {
  const std::string path = temp_path("recovery_cap.wct");
  write_binary_trace_file(path, sample_trace(50));

  std::vector<char> bytes = file_bytes(path);
  for (std::size_t rec = 0; rec < 20; ++rec) {
    bytes[kHeaderBytes + rec * kRecordBytes + kClassOffset] =
        static_cast<char>(0xEE);
  }
  write_bytes(path, bytes);

  RecoveryReport report;
  const Trace recovered = read_binary_trace_file_recovering(path, report);
  EXPECT_EQ(recovered.requests.size(), 30u);
  EXPECT_EQ(report.skipped, 20u);
  // Diagnostics are capped so a shredded multi-GB file cannot flood memory.
  EXPECT_LE(report.first_errors.size(), RecoveryReport::kMaxErrors);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::trace
