#include "trace/streaming_trace.hpp"

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
  std::uint64_t digest = 0;
  if (count <= (std::numeric_limits<std::int64_t>::max() -
                detail::kHeaderBytes) / record_bytes) {
    std::ifstream in = detail::open_trace_file(path_);
    in.seekg(static_cast<std::streamoff>(detail::kHeaderBytes +
                                         count * record_bytes));
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
