#include "trace/dense_trace.hpp"

#include <fstream>
#include <numeric>
#include <utility>

#include "trace/binary_trace_detail.hpp"
#include "trace/id_map.hpp"

namespace webcache::trace {

namespace {

DenseTrace densify_in_place(Trace&& source) {
  IdMap ids;
  for (Request& r : source.requests) r.document = ids.intern(r.document);
  DenseTrace dense;
  dense.trace = std::move(source);
  dense.original_ids = ids.release_keys();
  return dense;
}

}  // namespace

DenseTrace densify(const Trace& source) {
  Trace copy = source;
  return densify_in_place(std::move(copy));
}

DenseTrace densify(Trace&& source) {
  return densify_in_place(std::move(source));
}

DenseTrace read_dense_trace_file(const std::string& path) {
  std::ifstream in = detail::open_trace_file(path);
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords);
  const std::uint64_t file_bytes = detail::file_size_or_zero(path);
  if (!decoder.has_dense_ids()) {
    return densify(detail::read_records(decoder, file_bytes));
  }
  DenseTrace dense;
  std::vector<Request>& requests = dense.trace.requests;
  requests.reserve(detail::records_present(decoder, file_bytes));
  std::vector<std::uint32_t> ids;
  std::size_t first = 0;
  while (decoder.next(requests, &ids)) {
    // The decoder admits an id only if it is one already seen or the next
    // new one, so a new id is always original_ids.size().
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Request& r = requests[first + i];
      if (ids[i] == dense.original_ids.size()) {
        dense.original_ids.push_back(r.document);
      }
      r.document = ids[i];
    }
    first = requests.size();
    ids.clear();
  }
  return dense;
}

std::uint64_t DenseTrace::overall_size_bytes() const {
  std::vector<std::uint64_t> last_size(original_ids.size(), 0);
  for (const Request& r : trace.requests) {
    last_size[static_cast<std::size_t>(r.document)] = r.document_size;
  }
  return std::accumulate(last_size.begin(), last_size.end(), std::uint64_t{0});
}

}  // namespace webcache::trace
