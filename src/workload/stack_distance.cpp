#include "workload/stack_distance.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/fenwick.hpp"

namespace webcache::workload {

std::uint64_t StackDistanceProfile::hits_at(std::uint64_t slots) const {
  if (slots == 0) return 0;
  std::uint64_t hits = 0;
  const std::uint64_t limit =
      std::min<std::uint64_t>(slots, histogram.size());
  for (std::uint64_t d = 0; d < limit; ++d) hits += histogram[d];
  return hits;
}

double StackDistanceProfile::hit_rate_at(std::uint64_t slots) const {
  return total_references == 0
             ? 0.0
             : static_cast<double>(hits_at(slots)) /
                   static_cast<double>(total_references);
}

std::vector<double> StackDistanceProfile::hit_rate_curve(
    std::uint64_t max_slots) const {
  std::vector<double> curve;
  curve.reserve(max_slots);
  std::uint64_t hits = 0;
  for (std::uint64_t d = 0; d < max_slots; ++d) {
    if (d < histogram.size()) hits += histogram[d];
    curve.push_back(total_references == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total_references));
  }
  return curve;
}

StackDistanceProfile compute_stack_distances(const trace::Trace& trace) {
  StackDistanceProfile profile;
  profile.total_references = trace.requests.size();
  if (trace.requests.empty()) return profile;

  // Fenwick tree over request positions: a 1 marks the most recent access
  // position of a currently-tracked document. The reuse distance of a
  // reference at position i with previous access at position p is the
  // number of marks strictly between p and i.
  util::FenwickTree marks(trace.requests.size());
  std::unordered_map<trace::DocumentId, std::uint64_t> last_position;
  last_position.reserve(trace.requests.size() / 2 + 16);

  std::uint64_t position = 0;
  for (const trace::Request& r : trace.requests) {
    const auto it = last_position.find(r.document);
    if (it == last_position.end()) {
      ++profile.cold_misses;
    } else {
      const std::uint64_t prev = it->second;
      // Distinct documents touched since prev = marks in (prev, position).
      const std::uint64_t distance =
          marks.prefix_sum(position) - marks.prefix_sum(prev + 1);
      if (profile.histogram.size() <= distance) {
        profile.histogram.resize(distance + 1, 0);
      }
      ++profile.histogram[distance];
      marks.sub(prev, 1);  // the old position no longer marks the doc
    }
    marks.add(position, 1);
    last_position[r.document] = position;
    ++position;
  }
  return profile;
}

}  // namespace webcache::workload
