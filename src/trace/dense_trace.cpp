#include "trace/dense_trace.hpp"

#include <numeric>
#include <utility>

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

std::uint64_t DenseTrace::overall_size_bytes() const {
  std::vector<std::uint64_t> last_size(original_ids.size(), 0);
  for (const Request& r : trace.requests) {
    last_size[static_cast<std::size_t>(r.document)] = r.document_size;
  }
  return std::accumulate(last_size.begin(), last_size.end(), std::uint64_t{0});
}

}  // namespace webcache::trace
