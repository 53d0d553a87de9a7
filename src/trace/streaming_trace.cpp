#include "trace/streaming_trace.hpp"

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

void StreamingTraceReader::reset() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(detail::kHeaderBytes));
  if (!in_) throw std::runtime_error("binary trace: cannot rewind " + path_);
  decoder_.restart();
  chunk_.clear();
  dense_.clear();
}

}  // namespace webcache::trace
