// Dense document-id remapping, stored as replay records.
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
// A DenseTrace is not a Trace: it keeps, per request, only what the replay
// engines in src/sim read — a 16-byte ReplayRecord of transfer size, dense
// id, class and a size-changed flag, the fixed-record idiom of
// libCacheSim's oracleGeneral traces. Timestamp, status and document size
// are dropped; the client id is a side column that only the hierarchy asks
// for (ClientColumn::kLoad). The paper's Overall Size and the largest
// transfer are computed once, while the records are built, so neither
// costs a pass later. Consumers that want the full requests (characterize,
// export, the textbook oracle) read a Trace instead.
//
// The paper's modification rule (§4.1) compares each request's transfer
// size with the previous one for the same document. That comparison is a
// property of the trace, so the builder makes it once: a record whose size
// differs from its document's previous one carries size_changed, and the
// previous size is the next entry of the sparse previous_sizes column, in
// trace order. A replay walks a PreviousSizeCursor over that column and
// classifies only the flagged records, for whatever rule and threshold it
// runs, with no per-document array of its own.
//
// A WCT1 v4 file already stores the numbering: its writer interns once,
// and read_dense_trace_file() takes each record's dense id as is and
// records the original id at each first reference, with no hash at all.
// The decoder holds the ids to the first-reference rule, which bounds the
// id range by the records read; the checksum guards the bytes, but nothing
// cross-checks a dense id against its original id (the writer guarantees
// that mapping). Older files intern as they decode. Either way each chunk
// is decoded straight into the records by the one WCT1 chunk loop
// (trace/binary_trace_detail.hpp), and no whole-trace Trace is staged.
// The replay APIs in src/sim take a DenseTrace; their `const Trace&` forms
// densify first. The textbook oracle, which keys a std::map by the
// original ids, checks the results (tests/sim/oracle_test.cpp,
// tests/sim/oracle_equivalence_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

/// One request as the replay reads it.
struct ReplayRecord {
  /// Bytes transferred to the client (Request::transfer_size), the size
  /// the simulator caches and counts.
  std::uint64_t transfer_size = 0;
  /// Dense document id, in [0, DenseTrace::document_count()).
  std::uint32_t document = 0;
  DocumentClass doc_class = DocumentClass::kOther;
  /// Whether transfer_size differs from the previous request for the same
  /// document (never set on a document's first request). The previous size
  /// is the record's entry in DenseTrace::previous_sizes.
  bool size_changed = false;
};
static_assert(sizeof(ReplayRecord) == 16,
              "a replay record is 16 bytes: 8 size + 4 id + class + flag + "
              "padding");

/// Whether a DenseTrace keeps each request's client id. Only the
/// hierarchy simulator reads it, to attach requests to edge proxies.
enum class ClientColumn { kSkip, kLoad };

/// A trace renumbered to dense document ids, as replay records, plus the
/// table to translate the ids back. Built by densify() and
/// read_dense_trace_file() (or DenseTraceBuilder), which also fill the
/// summary fields.
struct DenseTrace {
  /// One record per request, in trace order.
  std::vector<ReplayRecord> records;

  /// original_ids[dense_id] = the DocumentId the source trace used.
  std::vector<DocumentId> original_ids;

  /// clients[i] = Request::client of request i when built with
  /// ClientColumn::kLoad; empty otherwise.
  std::vector<std::uint32_t> clients;

  /// One entry per record with size_changed, in trace order: the transfer
  /// size of the previous request for that record's document.
  std::vector<std::uint64_t> previous_sizes;

  /// The paper's "Overall Size": each document's last document_size,
  /// summed. Equals Trace::overall_size_bytes() of the source trace.
  std::uint64_t overall_size = 0;

  /// The largest transfer size of any request (0 for an empty trace).
  std::uint64_t max_transfer = 0;

  std::uint64_t total_requests() const { return records.size(); }

  /// Number of distinct documents == the exclusive upper bound on every
  /// ReplayRecord::document.
  std::uint64_t document_count() const { return original_ids.size(); }

  DocumentId original_id(DocumentId dense_id) const {
    return original_ids[dense_id];
  }

  std::uint64_t overall_size_bytes() const { return overall_size; }
  std::uint64_t max_transfer_size() const { return max_transfer; }
};

/// Walks DenseTrace::previous_sizes alongside the records: take() hands
/// out a flagged record's previous size, and expect_end() checks that the
/// column held exactly one entry per flagged record. Either mismatch is a
/// std::logic_error naming the column; a builder-made trace never has one.
class PreviousSizeCursor {
 public:
  explicit PreviousSizeCursor(const DenseTrace& trace)
      : next_(trace.previous_sizes.data()),
        end_(next_ + trace.previous_sizes.size()) {}

  /// The previous transfer size of `r`'s document when `r` is flagged
  /// size_changed; `r.transfer_size` otherwise.
  std::uint64_t take(const ReplayRecord& r) {
    if (!r.size_changed) return r.transfer_size;
    if (next_ == end_) {
      throw std::logic_error(
          "DenseTrace: previous_sizes ends before the last size-changed "
          "record");
    }
    return *next_++;
  }

  /// Throws unless every entry was taken.
  void expect_end() const {
    if (next_ != end_) {
      throw std::logic_error(
          "DenseTrace: previous_sizes has more entries than size-changed "
          "records (" +
          std::to_string(end_ - next_) + " left)");
    }
  }

 private:
  const std::uint64_t* next_;
  const std::uint64_t* end_;
};

/// Builds a DenseTrace request by request. It tracks each document's last
/// document size, for the Overall Size, and last transfer size, for the
/// size-changed flags and previous_sizes; finish() frees both. Sized up
/// front with reserve(), no per-request or per-document vector reallocates
/// while requests are added.
class DenseTraceBuilder {
 public:
  explicit DenseTraceBuilder(ClientColumn clients = ClientColumn::kSkip)
      : clients_(clients == ClientColumn::kLoad) {}

  /// Room for `requests` requests: the records exactly, the per-document
  /// arrays for as many documents (untouched capacity costs address
  /// space, not memory).
  void reserve(std::size_t requests);

  /// Appends `r`, whose document has dense id `id`: a document already
  /// added, or the next new one (document_count()), which records
  /// r.document as its original id.
  void add(const Request& r, std::uint32_t id) {
    bool changed = false;
    if (id == last_.size()) {
      trace_.original_ids.push_back(r.document);
      last_.push_back({r.document_size, r.transfer_size});
    } else {
      LastSizes& last = last_[id];
      last.document = r.document_size;
      if (last.transfer != r.transfer_size) {
        changed = true;
        trace_.previous_sizes.push_back(last.transfer);
        last.transfer = r.transfer_size;
      }
    }
    trace_.records.push_back({r.transfer_size, id, r.doc_class, changed});
    if (clients_) trace_.clients.push_back(r.client);
    if (r.transfer_size > trace_.max_transfer) {
      trace_.max_transfer = r.transfer_size;
    }
  }

  std::uint64_t document_count() const { return last_.size(); }

  /// Sums the Overall Size and hands the trace over; the builder is left
  /// empty.
  DenseTrace finish();

 private:
  // One entry per document, so a request's two updates share a cache line.
  struct LastSizes {
    std::uint64_t document = 0;  // last Request::document_size
    std::uint64_t transfer = 0;  // last Request::transfer_size
  };

  DenseTrace trace_;
  std::vector<LastSizes> last_;
  bool clients_;
};

/// One-pass remap (first appearance order); the source is left untouched.
DenseTrace densify(const Trace& source,
                   ClientColumn clients = ClientColumn::kSkip);

/// Loads a WCT1 file as a DenseTrace. A v4 file's stored dense ids are
/// taken as they are and its original ids fill `original_ids` at each
/// first reference; a v1-v3 file interns each record as it is decoded.
/// Either way the result equals densify(read_binary_trace_file(path),
/// clients) field by field, the record vector is allocated once at its
/// final size, and every strict-loader diagnostic is the same
/// (trace/binary_trace.hpp).
DenseTrace read_dense_trace_file(const std::string& path,
                                 ClientColumn clients = ClientColumn::kSkip);

}  // namespace webcache::trace
