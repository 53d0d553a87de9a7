// The WCT1 trailer checksum: the word-wise 4-lane hash of v3 and v4 must
// give the same digest however the payload is split across update() calls
// (the loaders feed it chunk by chunk, the writer block by block), must
// catch every single-bit flip of a v4 file through every loader, and must
// leave v1/v2 files (byte-wise FNV-1a) and v3 files loadable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/wct1.hpp"
#include "trace/binary_trace.hpp"
#include "trace/binary_trace_detail.hpp"
#include "trace/dense_trace.hpp"
#include "trace/streaming_trace.hpp"

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

namespace webcache::trace {
namespace {

using detail::TraceChecksum;

constexpr std::size_t kRecordBytes = wct1::kRecordBytes;

std::string random_payload(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng() & 0xFF);
  return data;
}

std::uint64_t one_shot(std::uint32_t version, const std::string& data) {
  TraceChecksum checksum(version);
  checksum.update(data.data(), data.size());
  return checksum.value();
}

std::uint64_t in_pieces(std::uint32_t version, const std::string& data,
                        const std::vector<std::size_t>& pieces) {
  TraceChecksum checksum(version);
  std::size_t at = 0;
  for (std::size_t i = 0; at < data.size(); ++i) {
    const std::size_t n = std::min(pieces[i % pieces.size()], data.size() - at);
    checksum.update(data.data() + at, n);
    at += n;
  }
  return checksum.value();
}

TEST(TraceChecksum, AnySplitEqualsOneShot) {
  for (const std::uint32_t version : {2u, kTraceVersion}) {
    for (const std::size_t size :
         {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{32},
          std::size_t{33}, 3 * kRecordBytes, 100 * kRecordBytes + 17}) {
      const std::string data = random_payload(size, 7 + size);
      const std::uint64_t expected = one_shot(version, data);
      for (const std::size_t piece :
           {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
            kRecordBytes, 2 * kRecordBytes}) {
        EXPECT_EQ(in_pieces(version, data, {piece}), expected)
            << "v" << version << ", " << size << " bytes in pieces of "
            << piece;
      }
      std::mt19937 rng(size);
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::size_t> pieces(16);
        for (std::size_t& p : pieces) p = 1 + rng() % 100;
        EXPECT_EQ(in_pieces(version, data, pieces), expected)
            << "v" << version << ", " << size << " bytes, trial " << trial;
      }
    }
  }
}

TEST(TraceChecksum, ResetStartsOver) {
  const std::string data = random_payload(200, 3);
  TraceChecksum checksum;
  checksum.update(data.data(), 45);
  checksum.reset();
  checksum.update(data.data(), data.size());
  EXPECT_EQ(checksum.value(), one_shot(kTraceVersion, data));
}

TEST(TraceChecksum, ZeroPaddingAndLengthAreNotConfused) {
  // The final block is zero-padded, so only the folded-in byte count tells
  // these apart.
  const std::string data = random_payload(40, 11);
  EXPECT_NE(one_shot(kTraceVersion, data),
            one_shot(kTraceVersion, data + std::string(1, '\0')));
  EXPECT_NE(one_shot(kTraceVersion, data),
            one_shot(kTraceVersion, data + std::string(24, '\0')));
  EXPECT_NE(one_shot(kTraceVersion, ""),
            one_shot(kTraceVersion, std::string(32, '\0')));
}

Trace three_records() {
  Trace t;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Request r;
    r.timestamp_ms = 1000 + 17 * i;
    r.document = 0xABCDEF00 + i;
    r.client = static_cast<std::uint32_t>(3 * i + 1);
    r.doc_class = static_cast<DocumentClass>(i + 1);
    r.status = 200;
    r.document_size = 4096 + i;
    r.transfer_size = 4000 + i;
    t.requests.push_back(r);
  }
  return t;
}

void write_file(const std::string& path, const std::string& data) {
  // A fresh file, not a truncated one: some filesystems flush a file that
  // is truncated and rewritten, which would cost milliseconds per flip.
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t drain(StreamingTraceReader& reader) {
  std::size_t n = 0;
  for (auto chunk = reader.next_chunk(); !chunk.empty();
       chunk = reader.next_chunk()) {
    n += chunk.size();
  }
  return n;
}

TEST(TraceChecksum, EverySingleBitFlipIsRejected) {
  std::stringstream buf;
  write_binary_trace(buf, three_records());
  const std::string good = buf.str();
  // Three first references: the v5 tail is its 24-byte summary alone.
  const std::size_t tail = detail::kHeaderBytes + 3 * kRecordBytes;
  ASSERT_EQ(good.size(), tail + detail::kTailSummaryBytes + 8);
  std::uint32_t written_version = 0;
  std::memcpy(&written_version, good.data() + 4, sizeof(written_version));
  ASSERT_EQ(written_version, 5u);
  const std::string path = testing::TempDir() + "/trace_checksum_flip.wct";

  for (std::size_t bit = 0; bit < 8 * good.size(); ++bit) {
    std::string data = good;
    data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    write_file(path, data);
    const std::string where = "bit " + std::to_string(bit);

    std::stringstream in(data);
    EXPECT_THROW(read_binary_trace(in), std::runtime_error) << where;
    EXPECT_THROW(read_binary_trace_file(path), std::runtime_error) << where;
    EXPECT_THROW(read_dense_trace_file(path), std::runtime_error) << where;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{2}, std::size_t{4096}}) {
      EXPECT_THROW(
          {
            StreamingTraceReader reader(path, chunk);
            drain(reader);
          },
          std::runtime_error)
          << where << ", chunk " << chunk;
    }

    // Past the header every flip lands in bytes the checksum covers (or in
    // the trailer itself); a header flip is a format error, not a checksum
    // one, and the recovering loader throws or reports it as damage.
    // A flip in the tail's changed_count moves where the trailer is
    // looked for, so the recovering loader finds it missing instead.
    RecoveryReport report;
    const bool in_changed_count =
        bit / 8 >= tail + 16 && bit / 8 < tail + detail::kTailSummaryBytes;
    if (in_changed_count) {
      read_binary_trace_file_recovering(path, report);
      EXPECT_TRUE(report.missing_trailer) << where;
      EXPECT_FALSE(report.clean()) << where;
    } else if (bit / 8 >= detail::kHeaderBytes) {
      read_binary_trace_file_recovering(path, report);
      EXPECT_TRUE(report.checksum_mismatch) << where;
    } else {
      try {
        read_binary_trace_file_recovering(path, report);
        EXPECT_FALSE(report.clean()) << where;
      } catch (const std::runtime_error&) {
      }
    }
  }
  std::remove(path.c_str());
}

std::string version_one_file() {
  std::string data("WCT1", 4);
  auto append = [&](const void* p, std::size_t n) {
    data.append(static_cast<const char*>(p), n);
  };
  const std::uint32_t version = 1;
  const std::uint64_t count = 2;
  append(&version, 4);
  append(&count, 8);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ts = 10 + i, doc = 77 + i, size = 500, transfer = 450;
    const std::uint8_t cls = 2;  // Multi Media
    const std::uint16_t status = 200;
    append(&ts, 8);
    append(&doc, 8);
    append(&cls, 1);
    append(&status, 2);
    append(&size, 8);
    append(&transfer, 8);
  }
  // Byte-wise FNV-1a over the 2 x 35 record bytes, spelled out.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = detail::kHeaderBytes; i < data.size(); ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  append(&h, 8);
  return data;
}

TEST(TraceChecksum, VersionOneFileStillLoads) {
  const std::string path = testing::TempDir() + "/trace_checksum_v1.wct";
  write_file(path, version_one_file());

  const Trace loaded = read_binary_trace_file(path);
  ASSERT_EQ(loaded.requests.size(), 2u);
  EXPECT_EQ(loaded.requests[1].document, 78u);
  EXPECT_EQ(loaded.requests[1].client, 0u);
  EXPECT_EQ(loaded.requests[1].doc_class, DocumentClass::kMultiMedia);

  StreamingTraceReader reader(path, 1);
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_EQ(drain(reader), 2u);

  RecoveryReport report;
  EXPECT_EQ(read_binary_trace_file_recovering(path, report).requests.size(),
            2u);
  EXPECT_TRUE(report.clean());
  std::remove(path.c_str());
}

TEST(TraceChecksum, GoldenVersionTwoFileStillLoadsAndRewritesAsV5) {
  const std::string golden = std::string(WEBCACHE_TEST_DATA_DIR) +
                             "/golden_dfn.wct";
  const std::string bytes = read_file(golden);
  ASSERT_GT(bytes.size(), detail::kHeaderBytes + 8);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  ASSERT_EQ(version, 2u);

  const Trace loaded = read_binary_trace_file(golden);
  std::stringstream in(bytes);
  EXPECT_EQ(read_binary_trace(in).requests.size(), loaded.requests.size());
  StreamingTraceReader reader(golden, 4096);
  EXPECT_EQ(drain(reader), loaded.requests.size());
  RecoveryReport report;
  read_binary_trace_file_recovering(golden, report);
  EXPECT_TRUE(report.clean());

  // Rewritten, it is a v5 file: the same header count; each v2 record with
  // its dense id (first-reference order) after the document id and its
  // size-changed flag in the class byte's top bit; then the tail.
  std::stringstream out;
  write_binary_trace(out, loaded);
  const std::string rewritten = out.str();
  const std::size_t n = loaded.requests.size();
  std::memcpy(&version, rewritten.data() + 4, sizeof(version));
  EXPECT_EQ(version, kTraceVersion);
  EXPECT_EQ(rewritten.substr(0, 4), bytes.substr(0, 4));
  EXPECT_EQ(rewritten.substr(8, 8), bytes.substr(8, 8));
  const std::vector<std::uint32_t> ids = wct1::first_reference_ids(loaded);
  const wct1::V5Fields v5 = wct1::derive_v5(loaded);
  ASSERT_GT(v5.changed_count, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    std::string old_record =
        bytes.substr(detail::kHeaderBytes + i * wct1::kRecordBytesV3,
                     wct1::kRecordBytesV3);
    const std::string new_record = rewritten.substr(
        detail::kHeaderBytes + i * kRecordBytes, kRecordBytes);
    std::string dense(4, '\0');
    std::memcpy(dense.data(), &ids[i], 4);
    if (v5.flags[i]) {
      // The v2 record's class byte sits 4 bytes earlier, before no id.
      old_record[wct1::kClassOffset - 4] = static_cast<char>(
          old_record[wct1::kClassOffset - 4] | detail::kSizeChangedBit);
    }
    ASSERT_EQ(new_record, old_record.substr(0, wct1::kDenseIdOffset) + dense +
                              old_record.substr(wct1::kDenseIdOffset))
        << "record " << i;
  }
  ASSERT_EQ(rewritten.size(), detail::kHeaderBytes + n * kRecordBytes +
                                  detail::kTailSummaryBytes +
                                  8 * v5.changed_count + 8);
  EXPECT_EQ(rewritten, wct1::encode(loaded, 5));
}

TEST(TraceChecksum, VersionThreeFileStillLoads) {
  const Trace source = three_records();
  const std::string path = testing::TempDir() + "/trace_checksum_v3.wct";
  write_file(path, wct1::encode_v3(source));

  const auto expect_source = [&](const Trace& t, const char* loader) {
    ASSERT_EQ(t.requests.size(), source.requests.size()) << loader;
    for (std::size_t i = 0; i < t.requests.size(); ++i) {
      EXPECT_EQ(t.requests[i].document, source.requests[i].document) << loader;
      EXPECT_EQ(t.requests[i].client, source.requests[i].client) << loader;
      EXPECT_EQ(t.requests[i].transfer_size, source.requests[i].transfer_size)
          << loader;
    }
  };
  expect_source(read_binary_trace_file(path), "file");
  std::stringstream in(wct1::encode_v3(source));
  expect_source(read_binary_trace(in), "istream");
  const DenseTrace dense = read_dense_trace_file(path);
  EXPECT_EQ(dense.original_ids.size(), 3u);
  StreamingTraceReader reader(path, 2);
  EXPECT_EQ(reader.version(), 3u);
  EXPECT_EQ(drain(reader), 3u);
  RecoveryReport report;
  expect_source(read_binary_trace_file_recovering(path, report), "recovering");
  EXPECT_TRUE(report.clean());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::trace
