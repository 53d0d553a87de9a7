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
//
// A WCT1 v4 file already stores that numbering: its writer interns once,
// and read_dense_trace_file() takes each record's dense id as is and
// records the original id at each first reference, with no hash at all.
// The decoder holds the ids to the first-reference rule, which bounds the
// id range by the records read; the checksum guards the bytes, but nothing
// cross-checks a dense id against its original id (the writer guarantees
// that mapping). Older files load through densify().
// The replay APIs in src/sim take a DenseTrace; their `const Trace&` forms
// densify first. The textbook oracle, which keys a std::map by the
// original ids, checks the results (tests/sim/oracle_test.cpp,
// tests/sim/oracle_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <string>
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

/// Loads a WCT1 file as a DenseTrace. A v4 file's stored dense ids become
/// Request::document and its original ids fill `original_ids` at each
/// first reference; a v1-v3 file is densify(read_binary_trace_file(path)).
/// Either way the result equals densify(read_binary_trace_file(path))
/// field by field, and every strict-loader diagnostic is the same
/// (trace/binary_trace.hpp).
DenseTrace read_dense_trace_file(const std::string& path);

}  // namespace webcache::trace
