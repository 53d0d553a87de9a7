// trace::IdMap numbers keys in first-appearance order through every table
// growth, and trace::densify() built on it must produce exactly the ids a
// std::unordered_map reference produces, on the checked-in golden trace.
#include "trace/id_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::trace {
namespace {

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

Trace golden_trace() {
  return read_binary_trace_file(std::string(WEBCACHE_TEST_DATA_DIR) +
                                "/golden_dfn.wct");
}

// Sequential ids, ids that differ only in their high 32 bits, and a
// multiplicative scramble: the patterns real and synthetic traces produce.
std::vector<DocumentId> structured_keys(std::size_t n) {
  std::vector<DocumentId> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 3) {
      case 0:
        keys.push_back(i);
        break;
      case 1:
        keys.push_back(static_cast<DocumentId>(i) << 32);
        break;
      default:
        keys.push_back(static_cast<DocumentId>(i) * 0x9E3779B97F4A7C15ULL);
        break;
    }
  }
  return keys;
}

TEST(IdMap, NumbersInFirstAppearanceOrderAcrossGrowth) {
  // 20k keys cross the doubling points at 512, 1k, 2k, 4k, 8k and 16k.
  const std::vector<DocumentId> keys = structured_keys(20000);
  IdMap ids;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(ids.intern(keys[i]), i) << "key " << keys[i];
    ASSERT_EQ(ids.size(), i + 1);
  }
  // Every key keeps its id after all the rehashes.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(ids.intern(keys[i]), i) << "key " << keys[i];
  }
  EXPECT_EQ(ids.size(), keys.size());
  EXPECT_EQ(ids.release_keys(), keys);
}

TEST(IdMap, ZeroAndAllOnesAreOrdinaryKeys) {
  constexpr DocumentId kMax = std::numeric_limits<DocumentId>::max();
  IdMap ids;
  EXPECT_EQ(ids.intern(kMax), 0u);
  EXPECT_EQ(ids.intern(0), 1u);
  EXPECT_EQ(ids.intern(kMax), 0u);
  EXPECT_EQ(ids.intern(0), 1u);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids.release_keys(), (std::vector<DocumentId>{kMax, 0}));
}

TEST(IdMap, RepeatedKeysKeepTheirFirstId) {
  IdMap ids;
  const std::vector<DocumentId> sequence = {42, 42, 7, 42, 900, 7, 7, 900};
  const std::vector<std::uint32_t> expected = {0, 0, 1, 0, 2, 1, 1, 2};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(ids.intern(sequence[i]), expected[i]) << "step " << i;
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(IdMap, ReleaseKeysHandsOverTheTableAndEmptiesTheMap) {
  IdMap ids;
  for (const DocumentId key : {5, 9, 5, 1}) ids.intern(key);
  EXPECT_EQ(ids.release_keys(), (std::vector<DocumentId>{5, 9, 1}));
  EXPECT_EQ(ids.size(), 0u);
  EXPECT_EQ(ids.intern(9), 0u);
}

TEST(IdMap, DensifyMatchesAnUnorderedMapReferenceOnTheGoldenTrace) {
  const Trace source = golden_trace();
  std::unordered_map<DocumentId, DocumentId> reference;
  std::vector<DocumentId> reference_originals;
  std::vector<DocumentId> reference_ids;
  for (const Request& r : source.requests) {
    const auto [it, inserted] =
        reference.emplace(r.document, reference_originals.size());
    if (inserted) reference_originals.push_back(r.document);
    reference_ids.push_back(it->second);
  }

  const DenseTrace dense = densify(source);
  ASSERT_EQ(dense.records.size(), reference_ids.size());
  for (std::size_t i = 0; i < reference_ids.size(); ++i) {
    ASSERT_EQ(dense.records[i].document, reference_ids[i])
        << "request " << i;
  }
  EXPECT_EQ(dense.original_ids, reference_originals);
}

TEST(IdMap, DenseOverallSizeEqualsTheSparseOneOnTheGoldenTrace) {
  const Trace source = golden_trace();
  EXPECT_EQ(densify(source).overall_size_bytes(), source.overall_size_bytes());
}

TEST(IdMap, DenseOverallSizeCountsEachDocumentsLastSize) {
  Trace t;
  auto req = [](DocumentId doc, std::uint64_t size) {
    Request r;
    r.document = doc;
    r.document_size = size;
    r.transfer_size = size;
    return r;
  };
  // Document 77 shrinks, 900 grows and shrinks again, 5 never changes.
  t.requests = {req(900, 10), req(77, 20), req(900, 1000), req(5, 30),
                req(77, 4),   req(900, 15)};
  ASSERT_EQ(t.overall_size_bytes(), 15u + 4u + 30u);
  EXPECT_EQ(densify(t).overall_size_bytes(), t.overall_size_bytes());
  EXPECT_EQ(densify(Trace{}).overall_size_bytes(), 0u);
}

}  // namespace
}  // namespace webcache::trace
