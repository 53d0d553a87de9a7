// Compact binary trace format.
//
// Preprocessing a multi-GB access log is much slower than simulating it, so
// (like every serious proxy-cache study) we preprocess once and persist the
// request stream in a compact binary file that replays at memory speed.
//
// Layout (little-endian):
//   header:  magic "WCT1" | u32 version | u64 record count
//   records (v4):     u64 timestamp_ms | u64 document | u32 dense id |
//                     u32 client | u8 class | u16 status |
//                     u64 document_size | u64 transfer_size   (43 bytes)
//   records (v2, v3): as v4 without the dense id (39 bytes)
//   records (v1):     as v2 without the client field (client = 0)
//   trailer: u64 digest of all record bytes
//
// v4 stores each record in the form the replay consumes, the idiom of
// libCacheSim's oracleGeneral traces: the dense id numbers the documents
// 0, 1, 2, ... in order of first reference, exactly as trace::densify
// would, so a v4 file loads as a DenseTrace without a hash probe per
// request (read_dense_trace_file) and a stream hands its ids straight to
// the replay (RequestStream::dense_ids). The writer numbers them with one
// IdMap pass. The first-reference rule is the only thing a strict loader
// checks about the field: a record's dense id may not exceed the number of
// documents seen before it, so every id-indexed vector stays bounded by
// the records decoded. The checksum guards the bytes, but no loader
// cross-checks a dense id against its original id; the writer guarantees
// that mapping. There is no table of original ids: each record keeps its
// 64-bit id inline, so read_binary_trace_file, and with it every caller
// that wants original ids, reads v4 at no extra cost and no reader seeks.
//
// The v3 and v4 digest is a word-wise 4-lane hash. The payload is cut into
// 32-byte blocks; word k (a little-endian u64) of each block feeds lane k as
//   h = (h ^ w) * 0x9FB21C651E98DF25;  h ^= h >> 29;
// The final partial block is zero-padded, and the payload byte count and
// the four lanes are folded into the digest. Every step is a bijection of
// its lane, so a change confined to one word always changes the digest.
// Versions 1 and 2 store byte-wise FNV-1a instead (one dependent multiply
// per byte, ~10x slower); they stay readable, but nothing writes them.
// `webcache convert --recover OLD.wct NEW.wct` rewrites a clean file of any
// version as the current one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

inline constexpr char kTraceMagic[4] = {'W', 'C', 'T', '1'};
/// Current writer version. The readers accept every version from 1 up to it:
/// v1 files were written before the client field existed, v1/v2 files
/// carry the legacy FNV-1a trailer, and v1-v3 files store no dense ids.
inline constexpr std::uint32_t kTraceVersion = 4;

/// Writes a trace as the current version, numbering its documents' dense
/// ids in first-reference order; throws std::runtime_error on I/O failure.
/// The file overload overwrites an existing file in place and cuts it to
/// the new length, so rewriting a trace frees no disk blocks unless the new
/// one is shorter.
void write_binary_trace(std::ostream& out, const Trace& trace);
void write_binary_trace_file(const std::string& path, const Trace& trace);

/// Reads a trace; throws std::runtime_error on corrupt or truncated input
/// (bad magic, version mismatch, checksum mismatch, short read). The
/// diagnostics name the failing record index and byte offset. Both overloads
/// (and StreamingTraceReader) decode through one chunk loop: whole-record
/// chunks are read into a reused buffer and decoded straight into the
/// vector, so the loaders share every check and every diagnostic. The stream
/// overload works on any istream, including non-seekable ones. Neither
/// sizes anything from the header's record count alone: the file overload
/// reserves for the records the file can hold, the stream overload grows
/// the vector as it reads, so a corrupt count ends in a truncation
/// diagnostic, never in a huge allocation. A v4 record's dense id is
/// checked against the first-reference rule ("dense id D out of
/// first-reference order at record I of N (byte offset B)") and then
/// dropped: Request::document keeps the original id.
Trace read_binary_trace(std::istream& in);
Trace read_binary_trace_file(const std::string& path);

/// Damage summary produced by the permissive (--recover) loader.
struct RecoveryReport {
  /// Records decoded and kept.
  std::uint64_t recovered = 0;
  /// Records present in the file but dropped (invalid document class).
  std::uint64_t skipped = 0;
  /// Records the header promised but the file no longer holds (truncation).
  std::uint64_t truncated_records = 0;
  /// Checksum trailer disagreed with the record bytes actually read.
  bool checksum_mismatch = false;
  /// File ends before the checksum trailer (implies truncation damage).
  bool missing_trailer = false;
  /// Per-record diagnostics (record index + byte offset), capped at
  /// kMaxErrors so a thoroughly shredded file cannot flood memory.
  std::vector<std::string> first_errors;
  static constexpr std::size_t kMaxErrors = 8;

  /// True when the file was pristine (the strict loader would also accept
  /// it).
  bool clean() const {
    return skipped == 0 && truncated_records == 0 && !checksum_mismatch &&
           !missing_trailer;
  }
};

/// Permissive loader for damaged WCT1 files: undecodable records are
/// skipped, a truncated tail is dropped, and a checksum mismatch is
/// reported instead of thrown — every incident lands in `report` with the
/// record index and byte offset. The header (magic, version, count field)
/// must still be intact; without it there is no format to recover, and the
/// loader throws exactly like the strict one. A clean file yields the same
/// Trace as read_binary_trace_file. v4 dense ids are ignored, not checked:
/// a skipped record can drop a first reference, so the caller renumbers
/// (trace::densify).
Trace read_binary_trace_file_recovering(const std::string& path,
                                        RecoveryReport& report);

}  // namespace webcache::trace
