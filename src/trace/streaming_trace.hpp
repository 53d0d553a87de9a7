// Chunked reader over the WCT1 binary trace format.
//
// Where read_binary_trace_file materializes the whole trace, this reader
// pulls bounded windows: memory use is O(chunk_records), independent of the
// file size, so multi-GB traces replay without fitting in RAM. Both read
// through the same chunk-decode loop (detail::RecordDecoder in
// trace/binary_trace_detail.hpp), so a corrupt or truncated file produces
// the identical diagnostic — same message, same record index, same byte
// offset — whichever loader hits it. The checksum is accumulated across
// chunks and checked against the trailer after the final record. A v4
// file's dense ids come out through dense_ids(), held to the
// first-reference rule like every strict loader's. A v5 file's size-change
// flags and tail are checked like every strict loader's and then dropped:
// the stream derives its size changes itself (sim/last_size.hpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/binary_trace_detail.hpp"
#include "trace/request_stream.hpp"

namespace webcache::trace {

class StreamingTraceReader final : public RequestStream {
 public:
  /// Opens the file and validates the header; throws std::runtime_error
  /// with the same diagnostics as read_binary_trace_file on a bad magic,
  /// unsupported version or truncated header. `chunk_records` bounds the
  /// window size (and thus the reader's memory footprint); windows never
  /// exceed detail::RecordDecoder::kMaxChunkRecords.
  explicit StreamingTraceReader(std::string path,
                                std::size_t chunk_records = 1 << 16);
  // The decoder refers to in_, so the reader stays where it was built.
  StreamingTraceReader(const StreamingTraceReader&) = delete;
  StreamingTraceReader& operator=(const StreamingTraceReader&) = delete;

  std::uint64_t total_requests() const override { return decoder_.count(); }
  std::span<const Request> next_chunk() override;
  /// The last chunk's stored dense ids; empty for v1-v3 files.
  std::span<const std::uint32_t> dense_ids() const override {
    return dense_;
  }
  void reset() override;

  std::uint32_t version() const { return decoder_.version(); }
  const std::string& path() const { return path_; }
  /// The digest the file's checksum trailer stores, read through a second
  /// handle with one seek past the records the header declares and, on a
  /// v5 file, one past the tail its changed_count sizes (the replay
  /// still checks it against the records at the end). With version() and
  /// total_requests() it identifies the trace by content, whatever its
  /// path. Throws std::runtime_error when the file ends before the trailer.
  std::uint64_t stored_digest() const;

 private:
  std::string path_;
  std::ifstream in_;
  detail::RecordDecoder decoder_;
  std::vector<Request> chunk_;
  std::vector<std::uint32_t> dense_;
};

}  // namespace webcache::trace
