#include "trace/streaming_trace.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

namespace webcache::trace {

StreamingTraceReader::StreamingTraceReader(std::string path,
                                           std::size_t chunk_records)
    : path_(std::move(path)),
      in_(detail::open_trace_file(path_)),
      decoder_(in_, chunk_records) {}

std::span<const Request> StreamingTraceReader::next_chunk() {
  chunk_.clear();
  dense_.clear();
  if (!decoder_.next(chunk_, &dense_)) return {};
  return {chunk_.data(), chunk_.size()};
}

std::uint64_t StreamingTraceReader::stored_digest() const {
  const std::uint64_t count = decoder_.count();
  const std::uint64_t record_bytes = decoder_.record_bytes();
  // A v5 digest follows the tail, whose column is at most one word a record.
  const bool tail = decoder_.has_size_changes();
  const std::uint64_t fixed =
      detail::kHeaderBytes + (tail ? detail::kTailSummaryBytes : 0);
  const std::uint64_t per_record = record_bytes + (tail ? 8 : 0);
  std::uint64_t digest = 0;
  if (count <= (std::numeric_limits<std::int64_t>::max() - fixed) /
                   per_record) {
    std::ifstream in = detail::open_trace_file(path_);
    std::uint64_t offset = detail::kHeaderBytes + count * record_bytes;
    in.seekg(static_cast<std::streamoff>(offset));
    char summary[detail::kTailSummaryBytes];
    if (tail && in.read(summary, sizeof(summary))) {
      std::uint64_t changed = 0;
      std::memcpy(&changed, summary + 16, sizeof(changed));
      if (changed > count) {
        throw std::runtime_error(
            "binary trace: " + path_ + ": tail changed_count " +
            std::to_string(changed) + " exceeds the " +
            std::to_string(count) + " records");
      }
      offset += detail::kTailSummaryBytes + 8 * changed;
      in.seekg(static_cast<std::streamoff>(offset));
    }
    if (in.read(reinterpret_cast<char*>(&digest), sizeof(digest))) {
      return digest;
    }
  }
  throw std::runtime_error("binary trace: " + path_ +
                           " ends before the checksum trailer its " +
                           std::to_string(count) + " records place");
}

void StreamingTraceReader::reset() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(detail::kHeaderBytes));
  if (!in_) throw std::runtime_error("binary trace: cannot rewind " + path_);
  decoder_.restart();
  chunk_.clear();
  dense_.clear();
}

}  // namespace webcache::trace
