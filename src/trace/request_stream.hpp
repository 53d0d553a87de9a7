// Chunked pull interface over a request sequence.
//
// A RequestStream hands out bounded windows of requests instead of a
// materialized Trace, so replay engines can process workloads far larger
// than memory (file-backed traces via StreamingTraceReader, 10^9-request
// synthetic workloads via TraceGenerator::stream). Consumers drain it with
//
//   for (auto chunk = s.next_chunk(); !chunk.empty(); chunk = s.next_chunk())
//     for (const Request& r : chunk) ...
//
// The span is valid only until the next call to next_chunk() or reset().
// A stream whose source already numbers its documents (a WCT1 v4 file)
// also hands out each chunk's dense ids (dense_ids()), so the replay can
// skip interning them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "trace/request.hpp"

namespace webcache::trace {

class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Total number of requests the stream will yield (known up front — the
  /// binary format stores the count in its header, the generator derives it
  /// from the profile). Replay needs it before the first request to place
  /// the warm-up boundary exactly where a materialized run would.
  virtual std::uint64_t total_requests() const = 0;

  /// Next window of requests; an empty span signals end of stream. The
  /// returned storage is owned by the stream and is invalidated by the next
  /// next_chunk()/reset() call.
  virtual std::span<const Request> next_chunk() = 0;

  /// Dense ids of the last chunk, one per request, in first-reference order
  /// over the whole stream (0, 1, 2, ... as trace::densify numbers them);
  /// empty when the stream stores none. Valid as long as that chunk.
  virtual std::span<const std::uint32_t> dense_ids() const { return {}; }

  /// Rewinds to the first request so the stream can be replayed again.
  virtual void reset() = 0;
};

/// Adapts a materialized Trace to the stream interface (windowed views into
/// the vector, no copies). Lets every streaming engine run on in-memory
/// traces — which is also how the equivalence suite drives chunk sizes 1,
/// 7, 4096 and whole-trace against the same data.
class MemoryRequestStream final : public RequestStream {
 public:
  /// `chunk_records == 0` yields the whole trace as a single chunk. The
  /// referenced trace must outlive the stream.
  explicit MemoryRequestStream(const Trace& trace,
                               std::size_t chunk_records = 0)
      : trace_(&trace), chunk_records_(chunk_records) {}

  std::uint64_t total_requests() const override {
    return trace_->requests.size();
  }

  std::span<const Request> next_chunk() override {
    const std::size_t total = trace_->requests.size();
    if (next_ >= total) return {};
    const std::size_t n = chunk_records_ == 0
                              ? total - next_
                              : std::min(chunk_records_, total - next_);
    std::span<const Request> chunk(trace_->requests.data() + next_, n);
    next_ += n;
    return chunk;
  }

  void reset() override { next_ = 0; }

 private:
  const Trace* trace_;
  std::size_t chunk_records_;
  std::size_t next_ = 0;
};

}  // namespace webcache::trace
