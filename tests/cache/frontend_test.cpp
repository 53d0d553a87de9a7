#include "cache/frontend.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cache/factory.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

TEST(SingleCacheFrontend, PassesThroughAccessAndAccounting) {
  SingleCacheFrontend frontend(100, make_policy("LRU"));
  EXPECT_EQ(frontend.capacity_bytes(), 100u);
  EXPECT_EQ(frontend.description(), "LRU");

  EXPECT_EQ(frontend.access(1, 40, DocumentClass::kImage, false).kind,
            Cache::AccessKind::kMiss);
  EXPECT_TRUE(frontend.contains(1));
  EXPECT_EQ(frontend.access(1, 40, DocumentClass::kImage, false).kind,
            Cache::AccessKind::kHit);
  EXPECT_EQ(frontend.occupancy().total_bytes, 40u);
  EXPECT_EQ(frontend.eviction_count(), 0u);

  // Force evictions and confirm the counter propagates.
  frontend.access(2, 40, DocumentClass::kHtml, false);
  frontend.access(3, 40, DocumentClass::kHtml, false);
  EXPECT_GT(frontend.eviction_count(), 0u);
}

TEST(SingleCacheFrontend, AppliesAdmissionLimit) {
  SingleCacheFrontend frontend(1000, make_policy("LRU"),
                               /*admission_limit_bytes=*/100);
  EXPECT_EQ(frontend.access(1, 101, DocumentClass::kOther, false).kind,
            Cache::AccessKind::kBypass);
  EXPECT_EQ(frontend.access(2, 100, DocumentClass::kOther, false).kind,
            Cache::AccessKind::kMiss);
}

TEST(SingleCacheFrontend, ForceMissPropagates) {
  SingleCacheFrontend frontend(1000, make_policy("LFU-DA"));
  frontend.access(1, 50, DocumentClass::kHtml, false);
  const auto outcome = frontend.access(1, 60, DocumentClass::kHtml, true);
  EXPECT_EQ(outcome.kind, Cache::AccessKind::kMiss);
  EXPECT_EQ(frontend.occupancy().total_bytes, 60u);
}

TEST(SingleCacheFrontend, ReserveDenseIdsForwardsToCache) {
  SingleCacheFrontend frontend(1000, make_policy("LRU"));
  frontend.reserve_dense_ids(16);
  frontend.access(3, 10, DocumentClass::kHtml, false);
  EXPECT_TRUE(frontend.contains(3));
  // The reservation reached the underlying cache: it extends under live
  // contents, and a shrinking one trips the cache's own guard.
  EXPECT_NO_THROW(frontend.reserve_dense_ids(32));
  frontend.access(31, 10, DocumentClass::kHtml, false);
  EXPECT_TRUE(frontend.contains(3));
  EXPECT_TRUE(frontend.contains(31));
  EXPECT_THROW(frontend.reserve_dense_ids(16), std::logic_error);
}

TEST(SingleCacheFrontend, ExposesUnderlyingCache) {
  SingleCacheFrontend frontend(100, make_policy("GDS(1)"));
  frontend.cache().put(9, 10, DocumentClass::kOther);
  EXPECT_TRUE(frontend.contains(9));
  EXPECT_EQ(frontend.description(), "GDS(1)");
}

}  // namespace
}  // namespace webcache::cache
