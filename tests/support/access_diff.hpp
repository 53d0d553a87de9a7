// Differential check of the cache-side index modes: one cache keyed by the
// trace's own 64-bit ids (hash-map mode) and one that reserved the
// densified trace's universe (flat-array mode) must answer every access
// identically.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "trace/dense_trace.hpp"

namespace webcache::support {

/// Replays `trace` through `sparse` with the original ids and through
/// `dense` (empty; reserve_dense_ids is called here) with dense ids. A
/// document whose transfer size changed since its previous request is
/// accessed with force_miss, so invalidation runs too. Works for a
/// cache::Cache and for any cache::CacheFrontend. Returns the evictions
/// both performed.
template <typename CacheT>
std::uint64_t expect_same_accesses(const trace::Trace& trace, CacheT& sparse,
                                   CacheT& dense, const std::string& label) {
  const trace::DenseTrace ids = trace::densify(trace);
  dense.reserve_dense_ids(ids.document_count());
  std::map<trace::DocumentId, std::uint64_t> last_size;
  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const trace::Request& r = trace.requests[i];
    const auto [last, first] = last_size.try_emplace(r.document,
                                                     r.transfer_size);
    const bool changed = !first && last->second != r.transfer_size;
    last->second = r.transfer_size;
    const auto a = sparse.access(r.document, r.transfer_size, r.doc_class,
                                 changed);
    const auto b = dense.access(ids.records[i].document,
                                r.transfer_size, r.doc_class, changed);
    if (a.kind != b.kind || a.evictions != b.evictions ||
        a.was_resident != b.was_resident) {
      ADD_FAILURE() << label << ": request " << i << " diverges";
      return evictions;
    }
    evictions += a.evictions;
  }
  return evictions;
}

}  // namespace webcache::support
