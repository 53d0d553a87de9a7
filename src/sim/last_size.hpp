// The paper's modification rule (§4.1) and the stream's last-size tracker.
//
// classify_size_change() applies the rule to a document's previous and
// current transfer sizes. A materialized trace flags the requests whose
// size changed and stores their previous sizes once, at load
// (trace/dense_trace.hpp), so its replays keep no per-document state.
//
// A stream never holds the whole trace, so its batch layer
// (simulate_stream_checkpointed, checkpoint.cpp) derives the same flag and
// previous size as it goes: DenseLastSize keeps each document's last
// transfer size in a flat vector indexed by dense id, grown per batch to
// the ids numbered so far, and checkpointed as the "lastsize" section.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"
#include "util/state_io.hpp"

namespace webcache::sim::detail {

struct SizeChange {
  bool modified = false;
  bool interrupted = false;
};

inline SizeChange classify_size_change(std::uint64_t previous,
                                       std::uint64_t current,
                                       const SimulatorOptions& options) {
  SizeChange change;
  if (previous == current) return change;
  switch (options.modification_rule) {
    case ModificationRule::kAnyChange:
      change.modified = true;
      return change;
    case ModificationRule::kNever:
      return change;
    case ModificationRule::kThreshold:
      break;
  }
  const double prev = static_cast<double>(previous);
  const double relative =
      std::abs(static_cast<double>(current) - prev) / std::max(prev, 1.0);
  if (relative < options.modification_threshold) {
    change.modified = true;
  } else {
    change.interrupted = true;
  }
  return change;
}

/// Flat vector of each document's last transfer size, indexed by dense id.
/// A stream grows it per batch to the ids numbered so far, so at every
/// checkpoint its length is the count of documents seen.
class DenseLastSize {
 public:
  /// Extends the universe to `universe` ids; never shrinks.
  void grow(std::uint64_t universe) {
    if (universe > last_.size()) {
      last_.resize(static_cast<std::size_t>(universe), kUnseen);
    }
  }

  /// Records r's transfer size as its document's last one and sets
  /// r.size_changed when it differs from a previous one. Returns the
  /// previous size, which is what a DenseTrace stores for a flagged r
  /// (trace/dense_trace.hpp); for an unflagged r it means nothing.
  std::uint64_t mark(trace::ReplayRecord& r) {
    std::uint64_t& last = last_[r.document];
    const std::uint64_t previous = last;
    last = r.transfer_size;
    r.size_changed = previous != kUnseen && previous != r.transfer_size;
    return previous;
  }

  /// Checkpointing: the raw vector, sentinels included (the length is the
  /// count of ids numbered so far and part of the state). Entry i belongs
  /// to id i, so restore rejects more entries than the reader's id bound.
  void save_state(util::StateWriter& w) const {
    w.put_u64(last_.size());
    for (const std::uint64_t v : last_) w.put_u64(v);
  }
  void restore_state(util::StateReader& r) {
    const std::uint64_t n = r.take_count(8, "last-size entry");
    if (n > r.id_bound()) {
      r.fail("last-size entry count " + std::to_string(n) + " exceeds the " +
             std::to_string(r.id_bound()) + " interned id(s)");
    }
    last_.clear();
    last_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) last_.push_back(r.take_u64());
  }

 private:
  // No real transfer size reaches 2^64 - 1 bytes, so the sentinel is safe.
  static constexpr std::uint64_t kUnseen =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> last_;
};

}  // namespace webcache::sim::detail
