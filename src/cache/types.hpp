// Core value types of the cache library.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/document_class.hpp"
#include "trace/request.hpp"

namespace webcache::cache {

using ObjectId = trace::DocumentId;

/// Metadata the cache keeps per resident object. Policies receive a const
/// reference on every insert/hit and may base their priorities on any field.
/// The container updates all fields *before* invoking the policy hook, so on
/// a hit `last_access` is the current request index and `previous_access`
/// the one before it — their difference is the inter-reference gap GD*'s
/// beta estimator consumes.
struct CacheObject {
  ObjectId id = 0;
  std::uint64_t size = 0;            // bytes occupied in the cache
  trace::DocumentClass doc_class = trace::DocumentClass::kOther;
  /// References while resident (1 on insert, incremented on each hit).
  /// This is the f(p) of GD* and GDSF: in-cache frequency.
  std::uint64_t reference_count = 1;
  /// Request-stream index (the container's logical clock) of the most
  /// recent access.
  std::uint64_t last_access = 0;
  /// The access before last_access; equals insert_index until the first hit.
  std::uint64_t previous_access = 0;
  std::uint64_t insert_index = 0;    // request index of insertion
};

/// Grows a flat id-indexed vector to cover [0, universe), filling the new
/// entries with `unset`; existing entries keep their values. The dense
/// structures' reserve calls share it: a universe may extend while ids are
/// live, but never shrink (std::logic_error naming `owner`).
template <typename T>
void extend_dense_index(std::vector<T>& index, std::uint64_t universe,
                        const T& unset, const char* owner) {
  if (universe < index.size()) {
    throw std::logic_error(std::string(owner) +
                           ": dense universe cannot shrink");
  }
  index.resize(static_cast<std::size_t>(universe), unset);
}

}  // namespace webcache::cache
