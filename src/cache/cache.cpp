#include "cache/cache.hpp"

namespace webcache::cache {

double Occupancy::object_fraction(trace::DocumentClass c) const {
  if (total_objects == 0) return 0.0;
  return static_cast<double>(objects[static_cast<std::size_t>(c)]) /
         static_cast<double>(total_objects);
}

double Occupancy::byte_fraction(trace::DocumentClass c) const {
  if (total_bytes == 0) return 0.0;
  return static_cast<double>(bytes[static_cast<std::size_t>(c)]) /
         static_cast<double>(total_bytes);
}

void Occupancy::add(const Occupancy& other) {
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    objects[c] += other.objects[c];
    bytes[c] += other.bytes[c];
  }
  total_objects += other.total_objects;
  total_bytes += other.total_bytes;
}

}  // namespace webcache::cache
