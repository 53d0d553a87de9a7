// Core value types of the cache library.
#pragma once

#include <cstdint>
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
  /// The object table's stable slot for this object (ObjectTable::insert
  /// assigns it; it never changes while the object is resident). Policies
  /// key their structures by it, so their arrays follow the number of
  /// resident objects, not the document universe.
  std::uint32_t slot = 0;
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
static_assert(sizeof(CacheObject) == 56,
              "the slot must fit the padding after doc_class");

/// The entry for `slot` in a slot-indexed policy array, growing the array
/// (new entries = `fill`) to cover it first. Slots stay below the table's
/// high-water mark of resident objects, so the arrays do too.
template <typename T>
T& slot_entry(std::vector<T>& array, std::uint32_t slot, const T& fill = T{}) {
  if (slot >= array.size()) array.resize(std::size_t{slot} + 1, fill);
  return array[slot];
}

}  // namespace webcache::cache
