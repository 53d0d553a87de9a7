// Field-by-field DenseTrace equality for the loader equivalence suites:
// records with their flags, original ids, clients, the previous-size
// column and the summary fields.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "trace/dense_trace.hpp"

namespace webcache::trace {

inline void expect_same_dense(const DenseTrace& a, const DenseTrace& b,
                              const std::string& label) {
  EXPECT_EQ(a.original_ids, b.original_ids) << label;
  EXPECT_EQ(a.clients, b.clients) << label;
  EXPECT_EQ(a.overall_size_bytes(), b.overall_size_bytes()) << label;
  EXPECT_EQ(a.max_transfer_size(), b.max_transfer_size()) << label;
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const ReplayRecord& x = a.records[i];
    const ReplayRecord& y = b.records[i];
    ASSERT_EQ(x.document, y.document) << label << " record " << i;
    ASSERT_EQ(x.doc_class, y.doc_class) << label << " record " << i;
    ASSERT_EQ(x.transfer_size, y.transfer_size) << label << " record " << i;
    ASSERT_EQ(x.size_changed, y.size_changed) << label << " record " << i;
  }
  EXPECT_EQ(a.previous_sizes, b.previous_sizes) << label;
}

}  // namespace webcache::trace
