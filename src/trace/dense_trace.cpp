#include "trace/dense_trace.hpp"

#include <fstream>
#include <utility>

#include "trace/binary_trace_detail.hpp"
#include "trace/id_map.hpp"

namespace webcache::trace {

void DenseTraceBuilder::reserve(std::size_t requests) {
  trace_.records.reserve(requests);
  if (clients_) trace_.clients.reserve(requests);
  trace_.original_ids.reserve(requests);
  last_.reserve(requests);
}

DenseTrace DenseTraceBuilder::finish() {
  std::uint64_t overall = 0;
  for (const LastSizes& last : last_) overall += last.document;
  trace_.overall_size = overall;
  trace_.previous_sizes.shrink_to_fit();
  last_ = {};
  return std::exchange(trace_, {});
}

DenseTrace densify(const Trace& source, ClientColumn clients) {
  DenseTraceBuilder builder(clients);
  builder.reserve(source.requests.size());
  IdMap ids;
  for (const Request& r : source.requests) {
    builder.add(r, ids.intern(r.document));
  }
  return builder.finish();
}

DenseTrace read_dense_trace_file(const std::string& path,
                                 ClientColumn clients) {
  std::ifstream in = detail::open_trace_file(path);
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords);
  DenseTraceBuilder builder(clients);
  builder.reserve(
      detail::records_present(decoder, detail::file_size_or_zero(path)));
  if (decoder.has_dense_ids()) {
    // The strict decoder admits an id only if it is one already seen or
    // the next new one, which is exactly what the builder requires.
    while (decoder.next([&](const Request& r, std::uint32_t id) {
      builder.add(r, id);
    })) {
    }
  } else {
    IdMap ids;
    while (decoder.next([&](const Request& r, std::uint32_t) {
      builder.add(r, ids.intern(r.document));
    })) {
    }
  }
  return builder.finish();
}

}  // namespace webcache::trace
