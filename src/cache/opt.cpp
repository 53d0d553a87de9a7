#include "cache/opt.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace webcache::cache {

OptPolicy::OptPolicy(const trace::DenseTrace& trace) {
  const std::vector<trace::ReplayRecord>& records = trace.records;
  if (records.size() >= (std::uint64_t{1} << 32)) {
    throw std::length_error(
        "OptPolicy: " + std::to_string(records.size()) +
        " requests; the next-reference oracle holds 32-bit clocks, so a "
        "trace must have fewer than 2^32 requests");
  }
  next_.resize(records.size());
  // Backward pass: upcoming[d] is the clock of the nearest later request
  // for document d (0 while there is none).
  std::vector<std::uint32_t> upcoming(
      static_cast<std::size_t>(trace.document_count()), 0);
  for (std::size_t i = records.size(); i-- > 0;) {
    std::uint32_t& later = upcoming[records[i].document];
    next_[i] = later;
    later = static_cast<std::uint32_t>(i + 1);
  }
}

double OptPolicy::priority_for(const CacheObject& obj) const {
  // obj.last_access is the clock of the request being served.
  const std::uint64_t now = obj.last_access;
  const std::uint64_t next =
      now == 0 || now > next_.size() ? 0 : next_[now - 1];
  if (next == 0) {
    // Dead object: evict before anything with a future, biggest first. The
    // base is far beyond any clock value yet small enough that adding the
    // size is not absorbed by floating-point rounding.
    constexpr double kDeadBase = 1e15;
    return -(kDeadBase + static_cast<double>(obj.size));
  }
  // Min-heap: further next reference = smaller priority = evicted earlier.
  return -static_cast<double>(next);
}

void OptPolicy::on_insert(const CacheObject& obj) {
  heap_.push(obj.slot, priority_for(obj));
}

void OptPolicy::on_hit(const CacheObject& obj) {
  heap_.update(obj.slot, priority_for(obj));
}

std::uint32_t OptPolicy::evict(std::uint64_t /*incoming_size*/) {
  return heap_.pop().key;
}

void OptPolicy::clear() { heap_.clear(); }

}  // namespace webcache::cache
