// Hand encoder for WCT1 trace files, for the decoder tests.
//
// The library writes only the current version (v5), with the dense ids,
// size-change flags and tail it derives itself. These tests also need the
// files it no longer writes (v3 and v4, to check that old traces still load
// and replay the same, and to pin the generator's bytes independently of
// the writer), and files whose dense ids, flags or tail break the rules
// under a valid checksum, so that only the decoder's own check can reject
// them. encode() writes any of them, through the library's own checksum,
// from a Trace and explicit ids, flags and tail.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "trace/binary_trace_detail.hpp"
#include "trace/dense_trace.hpp"
#include "trace/id_map.hpp"
#include "trace/request.hpp"

namespace webcache::trace::wct1 {

inline constexpr std::size_t kHeaderBytes = 16;
/// A v4/v5 record: u64 timestamp | u64 document | u32 dense id |
/// u32 client | u8 class | u16 status | u64 document size |
/// u64 transfer size.
inline constexpr std::size_t kRecordBytes = 43;
inline constexpr std::size_t kDenseIdOffset = 16;
inline constexpr std::size_t kClassOffset = 24;
/// A v2/v3 record: the v4 record without the dense id.
inline constexpr std::size_t kRecordBytesV3 = 39;

/// Dense ids in first-reference order, as the library's writer numbers them.
inline std::vector<std::uint32_t> first_reference_ids(const Trace& trace) {
  IdMap ids;
  std::vector<std::uint32_t> out;
  out.reserve(trace.requests.size());
  for (const Request& r : trace.requests) out.push_back(ids.intern(r.document));
  return out;
}

/// What a v5 file stores beyond the v4 records: one size-changed flag per
/// record and the tail. changed_count is its own field, so that a test can
/// make it disagree with the flags or the column.
struct V5Fields {
  std::vector<bool> flags;
  std::uint64_t overall_size = 0;
  std::uint64_t max_transfer = 0;
  std::uint64_t changed_count = 0;
  std::vector<std::uint64_t> previous_sizes;
};

/// The v5 fields of `trace` as the library derives them (through densify).
inline V5Fields derive_v5(const Trace& trace) {
  const DenseTrace dense = densify(trace);
  V5Fields v5;
  for (const ReplayRecord& r : dense.records) {
    v5.flags.push_back(r.size_changed);
  }
  v5.overall_size = dense.overall_size;
  v5.max_transfer = dense.max_transfer;
  v5.changed_count = dense.previous_sizes.size();
  v5.previous_sizes = dense.previous_sizes;
  return v5;
}

/// The bytes of a WCT1 file of `version` 3, 4 or 5 holding `trace`. From
/// v4 on the records store `dense_ids` (one per request; first-reference
/// order when empty), which may break the first-reference rule on purpose.
/// A v5 file stores `v5`'s flags and tail (derive_v5() when null), which
/// may disagree with the records on purpose. The trailer is the true
/// checksum.
inline std::string encode(const Trace& trace, std::uint32_t version,
                          std::vector<std::uint32_t> dense_ids = {},
                          const V5Fields* v5 = nullptr) {
  if (version >= 4 && dense_ids.empty()) dense_ids = first_reference_ids(trace);
  const V5Fields derived = version >= 5 && v5 == nullptr ? derive_v5(trace)
                                                         : V5Fields{};
  if (v5 == nullptr) v5 = &derived;
  std::string out("WCT1", 4);
  const auto put = [&out](const auto& value) {
    char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    out.append(bytes, sizeof(value));
  };
  put(version);
  put(static_cast<std::uint64_t>(trace.requests.size()));
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const Request& r = trace.requests[i];
    put(r.timestamp_ms);
    put(r.document);
    if (version >= 4) put(dense_ids.at(i));
    put(r.client);
    const bool flag = version >= 5 && v5->flags.at(i);
    put(static_cast<std::uint8_t>(static_cast<std::uint8_t>(r.doc_class) |
                                  (flag ? detail::kSizeChangedBit : 0)));
    put(r.status);
    put(r.document_size);
    put(r.transfer_size);
  }
  if (version >= 5) {
    put(v5->overall_size);
    put(v5->max_transfer);
    put(v5->changed_count);
    for (const std::uint64_t size : v5->previous_sizes) put(size);
  }
  detail::TraceChecksum checksum(version);
  checksum.update(out.data() + kHeaderBytes, out.size() - kHeaderBytes);
  put(checksum.value());
  return out;
}

inline std::string encode_v3(const Trace& trace) { return encode(trace, 3); }

}  // namespace webcache::trace::wct1
