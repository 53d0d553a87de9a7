// Compact binary trace format.
//
// Preprocessing a multi-GB access log is much slower than simulating it, so
// (like every serious proxy-cache study) we preprocess once and persist the
// request stream in a compact binary file that replays at memory speed.
//
// Layout (little-endian):
//   header:  magic "WCT1" | u32 version | u64 record count
//   records (v2, v3): u64 timestamp_ms | u64 document | u32 client | u8 class |
//                     u16 status | u64 document_size | u64 transfer_size
//   records (v1): as v2 without the client field (client = 0)
//   trailer: u64 digest of all record bytes
//
// The v3 digest is a word-wise 4-lane hash. The payload is cut into 32-byte
// blocks; word k (a little-endian u64) of each block feeds lane k as
//   h = (h ^ w) * 0x9FB21C651E98DF25;  h ^= h >> 29;
// The final partial block is zero-padded, and the payload byte count and
// the four lanes are folded into the digest. Every step is a bijection of
// its lane, so a change confined to one word always changes the digest.
// Versions 1 and 2 store byte-wise FNV-1a instead (one dependent multiply
// per byte, ~10x slower); they stay readable, but nothing writes them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

inline constexpr char kTraceMagic[4] = {'W', 'C', 'T', '1'};
/// Current writer version. The readers accept every version from 1 up to it:
/// v1 files were written before the client field existed, and v1/v2 files
/// carry the legacy FNV-1a trailer.
inline constexpr std::uint32_t kTraceVersion = 3;

/// Writes a trace; throws std::runtime_error on I/O failure.
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
/// diagnostic, never in a huge allocation.
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
/// Trace as read_binary_trace_file.
Trace read_binary_trace_file_recovering(const std::string& path,
                                        RecoveryReport& report);

}  // namespace webcache::trace
