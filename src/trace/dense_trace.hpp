// Dense document-id remapping.
//
// Real traces identify documents by 64-bit URL hashes. Keyed by those,
// every per-request container in the simulator (object table, LRU index,
// heap slot index, last-size map) would be an unordered_map, and replaying
// a multi-million-request trace would pay a hash probe — and usually a
// cache miss — per request per container.
//
// densify() makes one pass over a Trace and renumbers documents into the
// compact range [0, distinct_documents), in order of first appearance, while
// keeping a table mapping each dense id back to the original DocumentId.
// The renumbering goes through trace::IdMap (trace/id_map.hpp), a flat
// open-addressing table, so densifying costs one cache-missing probe per
// request rather than a hash-node chase.
// Every downstream structure can then be a flat array indexed by document
// id. Remapping changes nothing observable: document identity is only ever
// compared for equality, and policies break ties by insertion sequence.
// The replay APIs in src/sim take a DenseTrace; their `const Trace&` forms
// densify first. The textbook oracle, which keys a std::map by the
// original ids, checks the results (tests/sim/oracle_test.cpp,
// tests/sim/oracle_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

/// A Trace whose Request::document fields have been renumbered to the dense
/// range [0, document_count()), plus the table to translate back.
struct DenseTrace {
  /// The remapped trace; safe to pass anywhere a Trace is accepted. The
  /// dense simulate()/run_sweep() overloads exploit the bound.
  Trace trace;

  /// original_ids[dense_id] = the DocumentId the source trace used.
  std::vector<DocumentId> original_ids;

  /// Number of distinct documents == the exclusive upper bound on every
  /// Request::document in `trace`.
  std::uint64_t document_count() const { return original_ids.size(); }

  DocumentId original_id(DocumentId dense_id) const {
    return original_ids[dense_id];
  }

  /// The paper's "Overall Size": each document's last document_size,
  /// summed. Equals Trace::overall_size_bytes() of the source trace, but
  /// tracks last sizes in a flat vector indexed by dense id, not a hash map.
  std::uint64_t overall_size_bytes() const;
};

/// One-pass remap (first appearance order). The copying overload leaves the
/// source untouched; the rvalue overload renumbers in place.
DenseTrace densify(const Trace& source);
DenseTrace densify(Trace&& source);

}  // namespace webcache::trace
