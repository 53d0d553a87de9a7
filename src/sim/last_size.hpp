// Per-document size tracking shared by the trace-replay loops (single-cache
// simulator and hierarchy simulator).
//
// The paper's document-modification rule needs the previously recorded
// transfer size of every document, across the whole run (warm-up included).
// Two interchangeable representations: a hash map for arbitrary ids and a
// flat vector for densified traces. lookup() returns the stored previous
// size (for the caller to inspect and overwrite), or nullptr on the
// document's first appearance, which it records.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
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

class SparseLastSize {
 public:
  explicit SparseLastSize(std::size_t expected) {
    last_.reserve(expected / 2 + 16);
  }
  std::uint64_t* lookup(trace::DocumentId document, std::uint64_t size) {
    const auto [it, inserted] = last_.try_emplace(document, size);
    return inserted ? nullptr : &it->second;
  }

  /// Checkpointing: entries sorted by document id (deterministic bytes).
  void save_state(util::StateWriter& w) const {
    std::vector<std::pair<trace::DocumentId, std::uint64_t>> items(
        last_.begin(), last_.end());
    std::sort(items.begin(), items.end());
    w.put_u64(items.size());
    for (const auto& [id, size] : items) {
      w.put_u64(id);
      w.put_u64(size);
    }
  }
  void restore_state(util::StateReader& r) {
    const std::uint64_t n = r.take_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const trace::DocumentId id = r.take_u64();
      last_[id] = r.take_u64();
    }
  }

 private:
  std::unordered_map<trace::DocumentId, std::uint64_t> last_;
};

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

/// Flat-vector tracker for online-densified streams: the id universe is not
/// known up front, but OnlineDensifier hands out ids sequentially, so the
/// vector grows amortized-O(1) as new documents appear. Identical lookup
/// semantics to DenseLastSize.
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
  /// high-water dense id and part of the state).
  void save_state(util::StateWriter& w) const {
    w.put_u64(last_.size());
    for (const std::uint64_t v : last_) w.put_u64(v);
  }
  void restore_state(util::StateReader& r) {
    const std::uint64_t n = r.take_count(8, "last-size entry");
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
