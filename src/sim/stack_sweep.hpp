// One-pass multi-capacity LRU simulation via byte-weighted stack analysis.
//
// LRU is a stack algorithm: as long as every request fits in the cache, the
// resident set at any capacity is a prefix of one global recency order, so a
// single pass over the trace can answer hit/miss at *every* capacity
// simultaneously. StackSweep maintains that order in a Fenwick tree
// augmented with byte sums (O(log N) per request) and replays the
// simulator's exact semantics — warm-up boundary, modification-rule
// invalidations, interrupted transfers that leave a stale stored size, and
// the strict `used + size > capacity` eviction trigger — producing
// SimResults bit-identical to per-capacity sim::simulate() with an LRU
// policy, for a whole capacity ladder in one trace traversal.
//
// Exactness preconditions (enforced; see also run_sweep's automatic
// fallback):
//  * the replacement policy is plain LRU (no admission limit, no cost
//    model) — callers select LRU columns before invoking this;
//  * all modification rules and warm-up fractions are supported;
//  * every capacity is at least the trace's largest transfer size.
//    A document larger than the cache bypasses (is never stored), which
//    breaks the stack inclusion property across capacities; run() throws
//    std::invalid_argument so callers fall back to the per-cell grid for
//    such capacities.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"

namespace webcache::sim {

class StackSweep {
 public:
  /// Capacities may be in any order and may repeat; results come back in
  /// the same order. Throws std::invalid_argument on an empty ladder or on
  /// options that fail simulate()'s validation.
  StackSweep(std::vector<std::uint64_t> capacities, SimulatorOptions options);

  /// One pass over the trace; SimResult i corresponds to capacities()[i]
  /// and equals simulate(trace, capacities()[i], LRU, options)
  /// bit-for-bit. The per-document table is a flat array indexed by dense
  /// id. Throws std::invalid_argument when any capacity is smaller than
  /// the trace's largest transfer size (see header comment) or the trace
  /// exceeds 2^32 - 2 requests.
  std::vector<SimResult> run(const trace::DenseTrace& trace) const;

  /// A trace with arbitrary document ids: densify, then the dense
  /// overload. It stays because the benchmark harness
  /// (perfbench/wcbench.cpp) and the stack-sweep tests run a loaded or
  /// generated Trace directly.
  std::vector<SimResult> run(const trace::Trace& trace) const;

  const std::vector<std::uint64_t>& capacities() const { return capacities_; }

  /// The smallest capacity run() accepts for this trace (a DenseTrace
  /// carries it: DenseTrace::max_transfer_size()).
  static std::uint64_t max_transfer_size(const trace::Trace& trace);

 private:
  std::vector<std::uint64_t> capacities_;
  SimulatorOptions options_;
};

}  // namespace webcache::sim
