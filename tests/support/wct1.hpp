// Hand encoder for WCT1 trace files, for the decoder tests.
//
// The library writes only the current version (v4), with the dense ids it
// numbers itself. These tests also need the files it no longer writes (v3,
// to check that old traces still load and replay the same) and v4 files
// whose dense ids break the first-reference rule under a valid checksum,
// so that only the dense-id check can reject them. encode() writes either,
// through the library's own checksum, from a Trace and explicit ids.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "trace/binary_trace_detail.hpp"
#include "trace/id_map.hpp"
#include "trace/request.hpp"

namespace webcache::trace::wct1 {

inline constexpr std::size_t kHeaderBytes = 16;
/// A v4 record: u64 timestamp | u64 document | u32 dense id | u32 client |
/// u8 class | u16 status | u64 document size | u64 transfer size.
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

/// The bytes of a WCT1 file of `version` 3 or 4 holding `trace`; a v4
/// file stores `dense_ids` (one per request), which may break the
/// first-reference rule on purpose. The trailer is the true checksum.
inline std::string encode(const Trace& trace, std::uint32_t version,
                          const std::vector<std::uint32_t>& dense_ids = {}) {
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
    put(static_cast<std::uint8_t>(r.doc_class));
    put(r.status);
    put(r.document_size);
    put(r.transfer_size);
  }
  detail::TraceChecksum checksum(version);
  checksum.update(out.data() + kHeaderBytes, out.size() - kHeaderBytes);
  put(checksum.value());
  return out;
}

inline std::string encode_v3(const Trace& trace) { return encode(trace, 3); }

}  // namespace webcache::trace::wct1
