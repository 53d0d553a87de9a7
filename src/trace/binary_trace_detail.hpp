// Shared decode internals of the WCT1 binary trace format.
//
// Every loader — `read_binary_trace`, `read_binary_trace_file`, the
// permissive `read_binary_trace_file_recovering` and the chunked
// `StreamingTraceReader` — reads through one RecordDecoder, so they agree
// byte-for-byte on record layout, checksum accumulation and diagnostics: a
// truncated final chunk names the same record index and byte offset no
// matter which loader hit it, because there is only one loop to hit it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "trace/binary_trace.hpp"
#include "trace/request.hpp"

namespace webcache::trace::detail {

// Header layout: 4 magic + 4 version + 8 count.
inline constexpr std::uint64_t kHeaderBytes = 16;
/// v5 tail summary: overall_size, max_transfer, changed_count.
inline constexpr std::uint64_t kTailSummaryBytes = 24;
/// The class byte's size-changed bit (v5); classes are < 5.
inline constexpr std::uint8_t kSizeChangedBit = 0x80;

/// A v5 file's tail summary (binary_trace.hpp), as the writer derived it
/// from the whole trace.
struct TraceTail {
  /// The paper's Overall Size: each document's last document_size, summed.
  std::uint64_t overall_size = 0;
  /// The largest transfer size of any record.
  std::uint64_t max_transfer = 0;
  /// Records flagged size-changed == entries of the previous-size column.
  std::uint64_t changed_count = 0;
};

/// Digest of the record payload (and the v5 tail), as the trailer of a file
/// of `version` stores it: the v3-v5 4-lane word hash (see
/// binary_trace.hpp), or byte-wise FNV-1a for versions 1 and 2.
/// Split-invariant: feeding the payload in any pieces gives the one-shot
/// digest (v3 carries at most 31 bytes between update() calls).
class TraceChecksum {
 public:
  explicit TraceChecksum(std::uint32_t version = kTraceVersion)
      : legacy_(version < 3) {
    reset();
  }

  void update(const char* data, std::size_t n);
  std::uint64_t value() const;
  void reset();

 private:
  static constexpr std::size_t kBlockBytes = 32;

  bool legacy_;
  std::uint64_t fnv_ = 0;
  std::uint64_t lanes_[4] = {};
  std::uint64_t bytes_ = 0;
  char carry_[kBlockBytes] = {};
  std::size_t carry_bytes_ = 0;
};

/// Opens a trace file for reading; throws "binary trace: cannot open PATH".
std::ifstream open_trace_file(const std::string& path);

/// The one chunk-decode loop of the WCT1 loaders. The constructor reads and
/// validates the header (bad magic, unsupported version, truncated header
/// throw std::runtime_error); next() then reads whole-record chunks of at
/// most min(`chunk_records`, kMaxChunkRecords) into a reused buffer and
/// decodes them.
///
/// Damage past the header throws a diagnostic naming the record index and
/// byte offset — unless `recovery` is given, in which case it is recorded
/// there instead: a record with an invalid class is skipped, a truncated
/// tail is dropped, a bad or missing trailer is flagged. A strict decoder
/// also holds v4 dense ids to the first-reference rule (no id above the
/// count of documents seen so far) and a v5 file's flags and tail to the
/// records (binary_trace.hpp); a recovering one ignores them.
class RecordDecoder {
 public:
  /// Caps the read buffer (~45 MB), so neither a huge `chunk_records` nor
  /// a corrupt record count can size it.
  static constexpr std::size_t kMaxChunkRecords = std::size_t{1} << 20;

  RecordDecoder(std::istream& in, std::size_t chunk_records,
                RecoveryReport* recovery = nullptr);

  std::uint32_t version() const { return version_; }
  /// Record count the header declares.
  std::uint64_t count() const { return count_; }
  std::size_t record_bytes() const { return record_bytes_; }

  /// True when the records carry dense ids (version 4 and later).
  bool has_dense_ids() const { return version_ >= 4; }
  /// True when the records carry size-change flags and the file a tail
  /// (version 5 and later).
  bool has_size_changes() const { return version_ >= 5; }

  /// Decodes the next chunk and hands each of its valid records to
  /// `emit(const Request& r, std::uint32_t dense_id, bool size_changed)`,
  /// in file order, then returns true; once every record has been read,
  /// checks the tail and the checksum trailer (the first time) and returns
  /// false. `dense_id` is the record's stored id, held to the
  /// first-reference rule, and `size_changed` its stored flag, when the
  /// records carry them and the decoder is strict; else 0 and false. Every
  /// loader decodes through this one loop, so the records land straight in
  /// the caller's own layout.
  template <typename Emit>
  bool next(Emit&& emit);

  /// A v5 decoder stores the tail's previous-size column in `column` when
  /// it reads the tail, instead of only hashing it. `column` must outlive
  /// the decoder's last next().
  void keep_previous_sizes(std::vector<std::uint64_t>& column) {
    column_ = &column;
  }
  /// The tail summary; valid once next() has returned false on a strict
  /// v5 decoder (all zero before, and for other versions).
  const TraceTail& tail() const { return tail_; }

  /// next() appending to `out`; when the records carry dense ids and
  /// `dense` is given, the chunk's ids are appended to it, one per record
  /// appended to `out`.
  bool next(std::vector<Request>& out,
            std::vector<std::uint32_t>* dense = nullptr);

  /// Starts over at the first record; the caller has positioned the stream
  /// just past the header.
  void restart();

 private:
  /// True when next() hands out checked dense ids: the records carry them
  /// and the decoder is strict. A recovering decoder neither checks nor
  /// hands them out, because a skipped record can drop a first reference,
  /// so its caller renumbers.
  bool hands_out_dense_ids() const {
    return has_dense_ids() && recovery_ == nullptr;
  }

  /// Reads the next chunk into the buffer and feeds it to the checksum;
  /// sets `n` to the whole records it holds (a recovered truncation can
  /// leave 0). Returns false once every record has been read.
  bool read_chunk(std::size_t& n);
  /// Records the next read_chunk() asks for.
  std::size_t pending_records() const;
  /// Record `i` of the current chunk has class byte `cls`, which names no
  /// class: throws, or counts the skip when recovering.
  void reject_class(std::size_t i, std::uint8_t cls);
  [[noreturn]] void reject_dense_id(std::size_t i, std::uint32_t id) const;
  [[noreturn]] void reject_first_reference_flag(std::size_t i,
                                                std::uint32_t id) const;
  void check_trailer();
  /// Reads and hashes the v5 tail; returns false when a recovering decoder
  /// found it damaged (a strict one throws).
  bool read_tail();
  /// A damaged tail at byte `offset`: throws, or records it when
  /// recovering.
  void tail_damage(const std::string& what, std::uint64_t offset);
  /// Holds the tail summary to the records, after the checksum matched.
  void check_tail() const;

  std::istream& in_;
  std::size_t chunk_records_;
  RecoveryReport* recovery_;
  std::uint32_t version_ = 0;
  std::uint64_t count_ = 0;
  std::size_t record_bytes_ = 0;
  /// Records the file holds; below count_ only after a recovered truncation.
  std::uint64_t end_ = 0;
  std::uint64_t next_record_ = 0;
  /// Distinct documents the dense ids decoded so far have introduced.
  std::uint64_t documents_ = 0;
  /// Records decoded so far with the size-changed flag, and the largest
  /// transfer among all records decoded (strict v5 only).
  std::uint64_t flagged_ = 0;
  std::uint64_t max_transfer_ = 0;
  TraceTail tail_;
  std::vector<std::uint64_t>* column_ = nullptr;
  bool trailer_checked_ = false;
  TraceChecksum checksum_;
  std::vector<char> buffer_;
};

template <typename T>
inline void decode_field(const char*& p, T& value) {
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
}

/// Decodes one record's fields (`dense_id` only from v4 on); returns the
/// raw class byte, size-changed bit included, for the caller to validate.
inline std::uint8_t decode_record(const char* p, std::uint32_t version,
                                  Request& r, std::uint32_t& dense_id) {
  std::uint8_t cls = 0;
  decode_field(p, r.timestamp_ms);
  decode_field(p, r.document);
  if (version >= 4) decode_field(p, dense_id);
  if (version >= 2) decode_field(p, r.client);
  decode_field(p, cls);
  decode_field(p, r.status);
  decode_field(p, r.document_size);
  decode_field(p, r.transfer_size);
  return cls;
}

template <typename Emit>
bool RecordDecoder::next(Emit&& emit) {
  std::size_t n = 0;
  if (!read_chunk(n)) return false;
  const bool check_dense = hands_out_dense_ids();
  const std::uint8_t class_mask =
      has_size_changes() ? static_cast<std::uint8_t>(~kSizeChangedBit)
                         : std::uint8_t{0xFF};
  // The counters live in locals for the chunk: `emit` writes memory the
  // compiler cannot tell apart from the members, which would otherwise be
  // reloaded and stored on every record.
  const std::uint32_t version = version_;
  const std::size_t record_bytes = record_bytes_;
  std::uint64_t documents = documents_;
  std::uint64_t flagged = flagged_;
  std::uint64_t max_transfer = max_transfer_;
  const char* p = buffer_.data();
  for (std::size_t i = 0; i < n; ++i, p += record_bytes) {
    Request r;
    std::uint32_t id = 0;
    const std::uint8_t raw = decode_record(p, version, r, id);
    const std::uint8_t cls = raw & class_mask;
    if (cls >= kDocumentClassCount) [[unlikely]] {
      reject_class(i, cls);
      continue;
    }
    bool changed = false;
    if (check_dense) {
      // An id is either one already seen or the next new one; anything
      // higher would size the replay's id-indexed arrays past the records
      // read. A document's first reference has no previous size.
      if (id > documents) [[unlikely]] reject_dense_id(i, id);
      const bool first = id == documents;
      changed = raw != cls;
      if (changed && first) [[unlikely]] reject_first_reference_flag(i, id);
      documents += first ? 1 : 0;
      flagged += changed ? 1 : 0;
      max_transfer = std::max(max_transfer, r.transfer_size);
    } else {
      id = 0;
    }
    r.doc_class = static_cast<DocumentClass>(cls);
    emit(static_cast<const Request&>(r), id, changed);
  }
  documents_ = documents;
  flagged_ = flagged;
  max_transfer_ = max_transfer;
  next_record_ += n;
  return true;
}

/// Records per read of the materialized loaders: ~688 KB of 43-byte
/// records, so each chunk is decoded while it is still in L2.
inline constexpr std::size_t kLoadChunkRecords = std::size_t{1} << 14;

/// Size of the file at `path` in bytes; 0 when unknown (e.g. a pipe).
std::uint64_t file_size_or_zero(const std::string& path);

/// Records a materialized load may reserve for: the header's count, capped
/// by what a file of `file_bytes` bytes can hold (0 when the size is
/// unknown, and the vector grows as it reads). A corrupt count then ends
/// in the truncation diagnostic, never in a huge allocation.
std::size_t records_present(const RecordDecoder& decoder,
                            std::uint64_t file_bytes);

/// Decodes every record `decoder` has left into a Trace (original ids;
/// dense ids are checked and dropped).
Trace read_records(RecordDecoder& decoder, std::uint64_t file_bytes);

}  // namespace webcache::trace::detail
