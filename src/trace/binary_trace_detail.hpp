// Shared decode internals of the WCT1 binary trace format.
//
// Every loader — `read_binary_trace`, `read_binary_trace_file`, the
// permissive `read_binary_trace_file_recovering` and the chunked
// `StreamingTraceReader` — reads through one RecordDecoder, so they agree
// byte-for-byte on record layout, checksum accumulation and diagnostics: a
// truncated final chunk names the same record index and byte offset no
// matter which loader hit it, because there is only one loop to hit it.
#pragma once

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

/// Digest of the record payload, as the trailer of a file of `version`
/// stores it: the v3/v4 4-lane word hash (see binary_trace.hpp), or byte-wise
/// FNV-1a for versions 1 and 2. Split-invariant: feeding the payload in any
/// pieces gives the one-shot digest (v3 carries at most 31 bytes between
/// update() calls).
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
/// count of documents seen so far); a recovering one ignores them.
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

  /// Decodes the next chunk and hands each of its valid records to
  /// `emit(const Request& r, std::uint32_t dense_id)`, in file order, then
  /// returns true; once every record has been read, checks the checksum
  /// trailer (the first time) and returns false. `dense_id` is the
  /// record's stored id, held to the first-reference rule, when the
  /// records carry dense ids and the decoder is strict; else 0. Every
  /// loader decodes through this one loop, so the records land straight in
  /// the caller's own layout.
  template <typename Emit>
  bool next(Emit&& emit);

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
  void check_trailer();

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
/// raw class byte for the caller to validate.
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
  const char* p = buffer_.data();
  for (std::size_t i = 0; i < n; ++i, p += record_bytes_) {
    Request r;
    std::uint32_t id = 0;
    const std::uint8_t cls = decode_record(p, version_, r, id);
    if (cls >= kDocumentClassCount) [[unlikely]] {
      reject_class(i, cls);
      continue;
    }
    if (check_dense) {
      // An id is either one already seen or the next new one; anything
      // higher would size the replay's id-indexed arrays past the records
      // read.
      if (id > documents_) [[unlikely]] reject_dense_id(i, id);
      documents_ += id == documents_ ? 1 : 0;
    } else {
      id = 0;
    }
    r.doc_class = static_cast<DocumentClass>(cls);
    emit(static_cast<const Request&>(r), id);
  }
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
