#include "trace/preprocess.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace webcache::trace {
namespace {

LogEntry entry(const std::string& method, const std::string& url,
               std::uint16_t status, std::uint64_t size = 100,
               std::uint64_t timestamp_ms = 1000,
               const std::string& content_type = "") {
  LogEntry e;
  e.timestamp_ms = timestamp_ms;
  e.method = method;
  e.url = url;
  e.status = status;
  e.size = size;
  e.content_type = content_type;
  return e;
}

TEST(Preprocessor, AcceptsCacheableGet) {
  Preprocessor pre;
  const auto r = pre.process(entry("GET", "http://a/b.gif", 200, 4316));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->doc_class, DocumentClass::kImage);
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->document_size, 4316u);
  EXPECT_EQ(r->transfer_size, 4316u);
  EXPECT_EQ(pre.stats().accepted, 1u);
}

TEST(Preprocessor, RejectsByMethod) {
  Preprocessor pre;
  EXPECT_FALSE(pre.process(entry("POST", "http://a/b.gif", 200)));
  EXPECT_EQ(pre.stats().rejected_method, 1u);
  EXPECT_EQ(pre.stats().accepted, 0u);
}

TEST(Preprocessor, RejectsDynamicUrl) {
  Preprocessor pre;
  EXPECT_FALSE(pre.process(entry("GET", "http://a/cgi-bin/x", 200)));
  EXPECT_FALSE(pre.process(entry("GET", "http://a/b?x=1", 200)));
  EXPECT_EQ(pre.stats().rejected_dynamic_url, 2u);
}

TEST(Preprocessor, RejectsByStatus) {
  Preprocessor pre;
  EXPECT_FALSE(pre.process(entry("GET", "http://a/b.gif", 404)));
  EXPECT_EQ(pre.stats().rejected_status, 1u);
}

TEST(Preprocessor, FilterOrderMethodFirst) {
  // A POST to a dynamic URL counts as a method rejection (filters apply in
  // the documented order), so the stats attribute each drop once.
  Preprocessor pre;
  EXPECT_FALSE(pre.process(entry("POST", "http://a/cgi-bin/x", 404)));
  EXPECT_EQ(pre.stats().rejected_method, 1u);
  EXPECT_EQ(pre.stats().rejected_dynamic_url, 0u);
  EXPECT_EQ(pre.stats().rejected_status, 0u);
}

TEST(Preprocessor, TimestampsRebasedToFirstAccepted) {
  Preprocessor pre;
  // First entry is rejected; the base must come from the first *accepted*.
  pre.process(entry("POST", "http://a/x", 200, 1, 500));
  const auto r1 = pre.process(entry("GET", "http://a/b.gif", 200, 1, 2000));
  const auto r2 = pre.process(entry("GET", "http://a/c.gif", 200, 1, 2500));
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->timestamp_ms, 0u);
  EXPECT_EQ(r2->timestamp_ms, 500u);
}

TEST(Preprocessor, OutOfOrderTimestampClampedToZero) {
  Preprocessor pre;
  pre.process(entry("GET", "http://a/b.gif", 200, 1, 2000));
  const auto r = pre.process(entry("GET", "http://a/c.gif", 200, 1, 1000));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->timestamp_ms, 0u);
}

TEST(Preprocessor, SameUrlSameDocument) {
  Preprocessor pre;
  const auto r1 = pre.process(entry("GET", "http://a/b.gif", 200));
  const auto r2 = pre.process(entry("GET", "http://a/b.gif", 200));
  const auto r3 = pre.process(entry("GET", "http://a/c.gif", 200));
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->document, r2->document);
  EXPECT_NE(r1->document, r3->document);
}

TEST(Preprocessor, ClientHashedStableAndNonZero) {
  Preprocessor pre;
  LogEntry e1 = entry("GET", "http://a/b.gif", 200);
  e1.client = "10.0.0.1";
  LogEntry e2 = entry("GET", "http://a/c.gif", 200);
  e2.client = "10.0.0.1";
  LogEntry e3 = entry("GET", "http://a/d.gif", 200);
  e3.client = "10.0.0.2";
  const auto r1 = pre.process(e1);
  const auto r2 = pre.process(e2);
  const auto r3 = pre.process(e3);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_NE(r1->client, 0u);
  EXPECT_EQ(r1->client, r2->client);   // same address, same partition
  EXPECT_NE(r1->client, r3->client);   // different address
}

TEST(Preprocessor, MissingClientIsZero) {
  Preprocessor pre;
  LogEntry e = entry("GET", "http://a/b.gif", 200);
  e.client.assign(1, '-');
  const auto r = pre.process(e);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->client, 0u);
}

TEST(Preprocessor, ContentTypeDrivesClassification) {
  Preprocessor pre;
  const auto r = pre.process(
      entry("GET", "http://a/file.bin", 200, 10, 0, "video/mpeg"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->doc_class, DocumentClass::kMultiMedia);
}

TEST(PreprocessSquidLog, EndToEnd) {
  const std::string log =
      // kept: cacheable image
      "100.0 1 c TCP_MISS/200 4316 GET http://a/logo.gif - D/x image/gif\n"
      // dropped: query string
      "101.0 1 c TCP_MISS/200 99 GET http://a/s?q=1 - D/x text/html\n"
      // dropped: POST
      "102.0 1 c TCP_MISS/200 99 POST http://a/form - D/x text/html\n"
      // kept: 304 revalidation
      "103.0 1 c TCP_REFRESH_HIT/304 219 GET http://a/logo.gif - D/x -\n"
      // dropped: 404
      "104.0 1 c TCP_MISS/404 120 GET http://a/missing.html - D/x -\n"
      // kept: pdf
      "105.0 1 c TCP_MISS/200 50000 GET http://a/paper.pdf - D/x application/pdf\n";
  std::istringstream in(log);
  PreprocessStats stats;
  const Trace trace = preprocess_squid_log(in, &stats);
  ASSERT_EQ(trace.requests.size(), 3u);
  EXPECT_EQ(stats.total_entries, 6u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected_dynamic_url, 1u);
  EXPECT_EQ(stats.rejected_method, 1u);
  EXPECT_EQ(stats.rejected_status, 1u);
  EXPECT_EQ(trace.requests[0].doc_class, DocumentClass::kImage);
  EXPECT_EQ(trace.requests[1].status, 304);
  EXPECT_EQ(trace.requests[2].doc_class, DocumentClass::kApplication);
  EXPECT_EQ(trace.requests[0].timestamp_ms, 0u);
  EXPECT_EQ(trace.requests[2].timestamp_ms, 5000u);
  // Same URL twice -> one distinct document.
  EXPECT_EQ(trace.distinct_documents(), 2u);
}

}  // namespace
}  // namespace webcache::trace
