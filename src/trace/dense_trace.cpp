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
  trace_.overall_size = last_.overall_size();
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

namespace {

/// A v5 file as stored: the strict decoder has checked every id, flag and
/// the tail by the time next() returns false.
DenseTrace read_stored(detail::RecordDecoder& decoder, std::size_t records,
                       ClientColumn clients) {
  const bool load_clients = clients == ClientColumn::kLoad;
  DenseTrace trace;
  trace.records.reserve(records);
  trace.original_ids.reserve(records);
  if (load_clients) trace.clients.reserve(records);
  decoder.keep_previous_sizes(trace.previous_sizes);
  while (decoder.next([&](const Request& r, std::uint32_t id, bool changed) {
    if (id == trace.original_ids.size()) {
      trace.original_ids.push_back(r.document);
    }
    trace.records.push_back({r.transfer_size, id, r.doc_class, changed});
    if (load_clients) trace.clients.push_back(r.client);
  })) {
  }
  trace.overall_size = decoder.tail().overall_size;
  trace.max_transfer = decoder.tail().max_transfer;
  return trace;
}

}  // namespace

DenseTrace read_dense_trace_file(const std::string& path,
                                 ClientColumn clients) {
  std::ifstream in = detail::open_trace_file(path);
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords);
  const std::size_t records =
      detail::records_present(decoder, detail::file_size_or_zero(path));
  if (decoder.has_size_changes()) {
    return read_stored(decoder, records, clients);
  }
  DenseTraceBuilder builder(clients);
  builder.reserve(records);
  if (decoder.has_dense_ids()) {
    // The strict decoder admits an id only if it is one already seen or
    // the next new one, which is exactly what the builder requires.
    while (decoder.next([&](const Request& r, std::uint32_t id, bool) {
      builder.add(r, id);
    })) {
    }
  } else {
    IdMap ids;
    while (decoder.next([&](const Request& r, std::uint32_t, bool) {
      builder.add(r, ids.intern(r.document));
    })) {
    }
  }
  return builder.finish();
}

}  // namespace webcache::trace
