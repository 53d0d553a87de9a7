#include "trace/dense_trace.hpp"

#include <gtest/gtest.h>

#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace webcache::trace {
namespace {

Trace tiny_trace() {
  Trace t;
  auto req = [](DocumentId doc, std::uint64_t size) {
    Request r;
    r.document = doc;
    r.document_size = size;
    r.transfer_size = size;
    return r;
  };
  t.requests = {req(900, 10), req(77, 20), req(900, 10), req(5, 30),
                req(77, 20)};
  return t;
}

TEST(DenseTrace, RenumbersInFirstAppearanceOrder) {
  const DenseTrace dense = densify(tiny_trace());
  ASSERT_EQ(dense.document_count(), 3u);
  EXPECT_EQ(dense.records[0].document, 0u);
  EXPECT_EQ(dense.records[1].document, 1u);
  EXPECT_EQ(dense.records[2].document, 0u);
  EXPECT_EQ(dense.records[3].document, 2u);
  EXPECT_EQ(dense.records[4].document, 1u);
  EXPECT_EQ(dense.original_id(0), 900u);
  EXPECT_EQ(dense.original_id(1), 77u);
  EXPECT_EQ(dense.original_id(2), 5u);
}

TEST(DenseTrace, PreservesEveryOtherRequestField) {
  Trace source = tiny_trace();
  for (std::size_t i = 0; i < source.requests.size(); ++i) {
    source.requests[i].client = static_cast<std::uint32_t>(i % 2);
    source.requests[i].doc_class = static_cast<DocumentClass>(i % 5);
  }
  const DenseTrace dense = densify(source, ClientColumn::kLoad);
  ASSERT_EQ(dense.records.size(), source.requests.size());
  ASSERT_EQ(dense.clients.size(), source.requests.size());
  for (std::size_t i = 0; i < source.requests.size(); ++i) {
    const Request& a = source.requests[i];
    const ReplayRecord& b = dense.records[i];
    EXPECT_EQ(dense.original_id(b.document), a.document);
    EXPECT_EQ(b.doc_class, a.doc_class);
    EXPECT_EQ(b.transfer_size, a.transfer_size);
    EXPECT_EQ(dense.clients[i], a.client);
  }
  // Without the client column, no client is kept.
  EXPECT_TRUE(densify(source).clients.empty());
}

TEST(DenseTrace, SyntheticTraceIdsStayInBounds) {
  const Trace original =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
          .generate();
  const DenseTrace dense = densify(original);
  EXPECT_GT(dense.document_count(), 0u);
  std::uint64_t requested = 0;
  for (const ReplayRecord& r : dense.records) {
    ASSERT_LT(r.document, dense.document_count());
    requested += r.transfer_size;
  }
  // Aggregate trace properties are invariant under renumbering.
  EXPECT_EQ(dense.document_count(), original.distinct_documents());
  EXPECT_EQ(requested, original.requested_bytes());
  EXPECT_EQ(dense.overall_size_bytes(), original.overall_size_bytes());
}

TEST(DenseTrace, EmptyTrace) {
  const DenseTrace dense = densify(Trace{});
  EXPECT_EQ(dense.document_count(), 0u);
  EXPECT_TRUE(dense.records.empty());
  EXPECT_EQ(dense.overall_size_bytes(), 0u);
  EXPECT_EQ(dense.max_transfer_size(), 0u);
}

}  // namespace
}  // namespace webcache::trace
