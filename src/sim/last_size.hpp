// Per-document size tracking shared by the trace-replay loops (single-cache
// simulator and hierarchy simulator).
//
// The paper's document-modification rule needs the previously recorded
// transfer size of every document, across the whole run (warm-up included).
// Both trackers are flat vectors indexed by dense id: one sized to a
// densified trace's universe, one growing with a stream. lookup() returns
// the stored previous size (for the caller to inspect and overwrite), or
// nullptr on the document's first appearance, which it records.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
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

class DenseLastSize {
 public:
  explicit DenseLastSize(std::uint64_t universe)
      : last_(static_cast<std::size_t>(universe), kUnseen) {}
  std::uint64_t* lookup(trace::DocumentId document, std::uint64_t size) {
    std::uint64_t& slot = last_[static_cast<std::size_t>(document)];
    if (slot == kUnseen) {
      slot = size;
      return nullptr;
    }
    return &slot;
  }

 private:
  // No real transfer size reaches 2^64 - 1 bytes, so the sentinel is safe.
  static constexpr std::uint64_t kUnseen =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> last_;
};

/// Flat-vector tracker for streamed replays: the id universe is not known
/// up front, but trace::IdMap hands out ids sequentially, so the vector
/// grows amortized-O(1) as new documents appear. Identical lookup semantics
/// to DenseLastSize.
class GrowingDenseLastSize {
 public:
  std::uint64_t* lookup(trace::DocumentId document, std::uint64_t size) {
    const auto idx = static_cast<std::size_t>(document);
    if (idx >= last_.size()) last_.resize(idx + 1, kUnseen);
    std::uint64_t& slot = last_[idx];
    if (slot == kUnseen) {
      slot = size;
      return nullptr;
    }
    return &slot;
  }

  /// Checkpointing: the raw vector, sentinels included (the length is the
  /// high-water dense id and part of the state). Entry i belongs to id i,
  /// so restore rejects more entries than the reader's id bound.
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
  static constexpr std::uint64_t kUnseen =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> last_;
};

}  // namespace webcache::sim::detail
