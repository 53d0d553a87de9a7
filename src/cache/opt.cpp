#include "cache/opt.hpp"

#include <stdexcept>
#include <string>

#include "trace/id_map.hpp"

namespace webcache::cache {

OptPolicy::OptPolicy(const std::vector<trace::Request>& requests) {
  if (requests.size() >= (std::uint64_t{1} << 32)) {
    throw std::length_error(
        "OptPolicy: " + std::to_string(requests.size()) +
        " requests; the next-reference oracle holds 32-bit clocks, so a "
        "trace must have fewer than 2^32 requests");
  }
  next_.resize(requests.size());
  // Backward pass: upcoming[d] is the clock of the nearest later request
  // for document d, under ids numbered by IdMap from the end.
  trace::IdMap ids;
  std::vector<std::uint32_t> upcoming;
  for (std::size_t i = requests.size(); i-- > 0;) {
    const std::uint32_t d = ids.intern(requests[i].document);
    if (d == upcoming.size()) upcoming.push_back(0);
    next_[i] = upcoming[d];
    upcoming[d] = static_cast<std::uint32_t>(i + 1);
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
