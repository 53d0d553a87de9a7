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
// property of the trace, so it is made once: a record whose size differs
// from its document's previous one carries size_changed, and the previous
// size is the next entry of the sparse previous_sizes column, in trace
// order. A replay walks a PreviousSizeCursor over that column and
// classifies only the flagged records, for whatever rule and threshold it
// runs, with no per-document array of its own.
//
// A WCT1 v5 file stores all of it: its writer interns once and walks a
// LastSizeTable by the ids it numbers, so each record carries its dense id
// and size-changed flag, and the file's tail the previous_sizes column,
// the Overall Size and the largest transfer (trace/binary_trace.hpp).
// read_dense_trace_file() then decodes each record straight into a
// ReplayRecord, records the original id at each first reference, and takes
// the column and the summary from the tail: no hash and no per-document
// pass. The decoder holds the ids to the first-reference rule, which
// bounds the id range by the records read, and the flags and the tail to
// the records; the checksum guards the bytes, but nothing cross-checks a
// dense id against its original id or a flag against the sizes (the writer
// guarantees both). A v4 file stores only the numbering, so its load runs
// the DenseTraceBuilder (and its LastSizeTable) over the stored ids; older
// files also intern as they decode. Either way each chunk is decoded
// straight into the records by the one WCT1 chunk loop
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

/// Each document's last document size and last transfer size, by dense id:
/// what the Overall Size and the modification rule need from the requests
/// before the current one. The WCT1 writer and DenseTraceBuilder walk a
/// trace through one, so a v5 file stores the flags and column a load of
/// an older file derives.
class LastSizeTable {
 public:
  /// Room for `documents` documents (untouched capacity costs address
  /// space, not memory).
  void reserve(std::size_t documents) { last_.reserve(documents); }

  /// Records `r`, whose document has dense id `id`: one already recorded,
  /// or the next new one (size()). Returns true, with the document's
  /// previous transfer size in `previous`, when r's transfer size differs
  /// from it; a first reference never does.
  bool record(const Request& r, std::uint32_t id, std::uint64_t& previous) {
    if (id == last_.size()) {
      last_.push_back({r.document_size, r.transfer_size});
      return false;
    }
    Entry& last = last_[id];
    last.document = r.document_size;
    if (last.transfer == r.transfer_size) return false;
    previous = last.transfer;
    last.transfer = r.transfer_size;
    return true;
  }

  std::size_t size() const { return last_.size(); }

  /// Starts loading the entry of `id`, if it has one, into the cache.
  void prefetch(std::uint32_t id) const {
    if (id < last_.size()) __builtin_prefetch(last_.data() + id, 1);
  }

  /// The paper's Overall Size: each document's last document size, summed.
  std::uint64_t overall_size() const {
    std::uint64_t total = 0;
    for (const Entry& last : last_) total += last.document;
    return total;
  }

 private:
  // One entry per document, so a request's two updates share a cache line.
  struct Entry {
    std::uint64_t document = 0;  // last Request::document_size
    std::uint64_t transfer = 0;  // last Request::transfer_size
  };

  std::vector<Entry> last_;
};

/// Builds a DenseTrace request by request, through a LastSizeTable for the
/// Overall Size, the size-changed flags and previous_sizes; finish() frees
/// the table. Sized up front with reserve(), no per-request or
/// per-document vector reallocates while requests are added.
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
    if (id == last_.size()) trace_.original_ids.push_back(r.document);
    std::uint64_t previous = 0;
    const bool changed = last_.record(r, id, previous);
    if (changed) trace_.previous_sizes.push_back(previous);
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
  DenseTrace trace_;
  LastSizeTable last_;
  bool clients_;
};

/// One-pass remap (first appearance order); the source is left untouched.
DenseTrace densify(const Trace& source,
                   ClientColumn clients = ClientColumn::kSkip);

/// Loads a WCT1 file as a DenseTrace. A v5 file is decoded as stored: its
/// dense ids and flags go into the records, its original ids fill
/// `original_ids` at each first reference, and previous_sizes, the Overall
/// Size and the largest transfer come from its tail, with no per-document
/// pass. A v4 file's stored ids go through a DenseTraceBuilder; a v1-v3
/// file interns each record as it is decoded. Either way the result equals
/// densify(read_binary_trace_file(path), clients) field by field, the
/// record vector is allocated once at its final size, and every
/// strict-loader diagnostic is the same (trace/binary_trace.hpp).
DenseTrace read_dense_trace_file(const std::string& path,
                                 ClientColumn clients = ClientColumn::kSkip);

}  // namespace webcache::trace
