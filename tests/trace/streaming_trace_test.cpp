// StreamingTraceReader must be indistinguishable from the materialized
// loaders: identical requests for every chunking, and — the triage
// guarantee — *string-identical* diagnostics for every corruption mode, so
// a truncated multi-GB file names the same record index and byte offset
// whichever loader touches it.
#include "trace/streaming_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "trace/binary_trace.hpp"

namespace webcache::trace {
namespace {

Trace sample_trace(std::size_t n = 100) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.timestamp_ms = 100 + 37 * i;
    r.document = 0xBEEF0000 + (i * 7) % 23;
    r.client = static_cast<std::uint32_t>(i % 5);
    r.doc_class = static_cast<DocumentClass>(i % kDocumentClassCount);
    r.status = i % 9 == 0 ? 206 : 200;
    r.document_size = 500 + 131 * i;
    r.transfer_size = i % 9 == 0 ? r.document_size / 2 : r.document_size;
    t.requests.push_back(r);
  }
  return t;
}

std::string write_temp(const std::string& data, const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  // Removed first, so the rewrite starts a new file: truncating one in
  // place has cost milliseconds a call (ext4 mounted with `discard`).
  std::remove(path.c_str());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return path;
}

void expect_equal_requests(const Request& a, const Request& b,
                           std::size_t i) {
  EXPECT_EQ(a.timestamp_ms, b.timestamp_ms) << "record " << i;
  EXPECT_EQ(a.document, b.document) << "record " << i;
  EXPECT_EQ(a.client, b.client) << "record " << i;
  EXPECT_EQ(a.doc_class, b.doc_class) << "record " << i;
  EXPECT_EQ(a.status, b.status) << "record " << i;
  EXPECT_EQ(a.document_size, b.document_size) << "record " << i;
  EXPECT_EQ(a.transfer_size, b.transfer_size) << "record " << i;
}

TEST(StreamingTrace, RoundTripMatchesFileLoaderForEveryChunking) {
  const Trace t = sample_trace();
  const std::string path = testing::TempDir() + "/streaming_roundtrip.wct";
  write_binary_trace_file(path, t);
  const Trace loaded = read_binary_trace_file(path);

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}, std::size_t{1024}}) {
    StreamingTraceReader reader(path, chunk);
    EXPECT_EQ(reader.total_requests(), t.requests.size());
    EXPECT_EQ(reader.version(), kTraceVersion);
    std::vector<Request> streamed;
    for (auto span = reader.next_chunk(); !span.empty();
         span = reader.next_chunk()) {
      EXPECT_LE(span.size(), chunk);
      streamed.insert(streamed.end(), span.begin(), span.end());
    }
    ASSERT_EQ(streamed.size(), loaded.requests.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      expect_equal_requests(streamed[i], loaded.requests[i], i);
    }
  }
  std::remove(path.c_str());
}

TEST(StreamingTrace, ResetReplaysIdentically) {
  const Trace t = sample_trace(50);
  const std::string path = testing::TempDir() + "/streaming_reset.wct";
  write_binary_trace_file(path, t);

  StreamingTraceReader reader(path, 7);
  std::vector<Request> first;
  for (auto span = reader.next_chunk(); !span.empty();
       span = reader.next_chunk()) {
    first.insert(first.end(), span.begin(), span.end());
  }
  reader.reset();
  std::vector<Request> second;
  for (auto span = reader.next_chunk(); !span.empty();
       span = reader.next_chunk()) {
    second.insert(second.end(), span.begin(), span.end());
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_equal_requests(first[i], second[i], i);
  }

  // Mid-stream reset: consume a bit, rewind, and the full replay is intact.
  reader.reset();
  (void)reader.next_chunk();
  reader.reset();
  std::vector<Request> third;
  for (auto span = reader.next_chunk(); !span.empty();
       span = reader.next_chunk()) {
    third.insert(third.end(), span.begin(), span.end());
  }
  ASSERT_EQ(first.size(), third.size());
  std::remove(path.c_str());
}

TEST(StreamingTrace, EmptyTraceYieldsNoChunks) {
  const std::string path = testing::TempDir() + "/streaming_empty.wct";
  write_binary_trace_file(path, Trace{});
  StreamingTraceReader reader(path, 16);
  EXPECT_EQ(reader.total_requests(), 0u);
  EXPECT_TRUE(reader.next_chunk().empty());
  EXPECT_TRUE(reader.next_chunk().empty());  // idempotent at EOS
  std::remove(path.c_str());
}

// ---- diagnostics: string-identical to the materialized file loader ----

std::string stream_diagnostic_for(const std::string& data,
                                  std::size_t chunk) {
  const std::string path = write_temp(data, "streaming_diag.bin");
  std::string what;
  try {
    StreamingTraceReader reader(path, chunk);
    while (!reader.next_chunk().empty()) {
    }
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

std::string file_diagnostic_for(const std::string& data) {
  const std::string path = write_temp(data, "streaming_diag_ref.bin");
  std::string what;
  try {
    read_binary_trace_file(path);
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  std::remove(path.c_str());
  return what;
}

TEST(StreamingTrace, CorruptionDiagnosticsMatchFileLoaderVerbatim) {
  // sample_trace(2)-equivalent layout: two 43-byte v4 records after the
  // 16-byte header, then the 8-byte checksum trailer.
  std::stringstream buf;
  write_binary_trace(buf, sample_trace(2));
  const std::string good = buf.str();
  ASSERT_EQ(good.size(), 16u + 2 * 43 + 8);

  struct Case {
    const char* label;
    std::string data;
  };
  const std::vector<Case> cases = {
      {"truncated mid record 1", good.substr(0, 16 + 43 + 10)},
      {"truncated mid record 0", good.substr(0, 16 + 5)},
      {"missing trailer", good.substr(0, good.size() - 8)},
      {"short trailer", good.substr(0, good.size() - 3)},
      {"bad magic", std::string("NOPE-this-is-not-a-trace")},
      {"truncated header", good.substr(0, 7)},
      {"future version", [&] {
         std::string d = good;
         d[4] = 9;
         return d;
       }()},
      {"invalid class", [&] {
         std::string d = good;
         d[16 + 43 + 24] = 42;
         return d;
       }()},
      {"checksum flip", [&] {
         std::string d = good;
         d[16 + 5] ^= 0x01;
         return d;
       }()},
  };

  for (const Case& c : cases) {
    const std::string expected = file_diagnostic_for(c.data);
    ASSERT_FALSE(expected.empty()) << c.label;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                    std::size_t{1024}}) {
      const std::string got = stream_diagnostic_for(c.data, chunk);
      EXPECT_EQ(expected, got)
          << c.label << " at chunk " << chunk
          << ": streamed diagnostic diverged from the file loader";
    }
  }
}

TEST(StreamingTrace, MissingFileThrows) {
  EXPECT_THROW(StreamingTraceReader("/nonexistent/path/x.wct", 16),
               std::runtime_error);
}

TEST(StreamingTrace, ReadsVersionOneFiles) {
  // Same hand-crafted v1 image the materialized-loader test uses: one
  // 35-byte record without the client field.
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

  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : record) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  append(&h, 8);

  const std::string path = write_temp(data, "streaming_v1.bin");
  StreamingTraceReader reader(path, 4);
  EXPECT_EQ(reader.version(), 1u);
  const auto span = reader.next_chunk();
  ASSERT_EQ(span.size(), 1u);
  EXPECT_EQ(span[0].timestamp_ms, 123u);
  EXPECT_EQ(span[0].document, 456u);
  EXPECT_EQ(span[0].client, 0u);
  EXPECT_EQ(span[0].doc_class, DocumentClass::kHtml);
  EXPECT_EQ(span[0].document_size, 1000u);
  EXPECT_EQ(span[0].transfer_size, 900u);
  EXPECT_TRUE(reader.next_chunk().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webcache::trace
