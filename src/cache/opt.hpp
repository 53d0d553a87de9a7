// Clairvoyant replacement bound (Belady's MIN generalized to variable-size
// objects by the standard furthest-next-reference greedy).
//
// Not part of the paper's scheme set — an *upper bound* harness feature:
// the policy is constructed from the full future request sequence and, on
// replacement, evicts the resident object whose next reference is furthest
// in the future (never-referenced-again objects first, largest-first among
// those). For unit-size objects this is Belady's optimal MIN; for variable
// sizes the offline optimum is NP-hard and this greedy is the customary
// reference bound (e.g. in Cao & Irani's evaluation).
//
// The container's logical clock must advance exactly once per trace request
// (which the simulator guarantees), because next-reference lookups are
// keyed by request index: the oracle is one 32-bit entry per request, the
// clock of the next request for the same document.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::cache {

class OptPolicy final : public ReplacementPolicy {
 public:
  /// Builds the next-reference oracle from the trace's records in one
  /// backward pass over a flat array of document_count() entries (the ids
  /// are already dense, so nothing is interned). Request i corresponds to
  /// container clock i + 1. Throws std::length_error for 2^32 or more
  /// requests.
  explicit OptPolicy(const trace::DenseTrace& trace);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return "OPT"; }
  void clear() override;

 private:
  /// Priority for eviction ordering: -(next reference clock); objects never
  /// referenced again sort before everything (minus infinity bucket, with
  /// larger objects first so one eviction frees the most space).
  double priority_for(const CacheObject& obj) const;
  /// next_[i]: the clock of the next request for request i's document; 0
  /// when there is none.
  std::vector<std::uint32_t> next_;
  IndexedMinHeap<double> heap_;
};

}  // namespace webcache::cache
