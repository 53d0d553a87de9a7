// SHARDS-style spatially sampled miss-ratio curves.
//
// The exact route to an LRU capacity ladder is one replay per capacity on a
// materialized trace (run_sweep's grid). SampledSweep trades exactness for
// one pass at bounded memory: a document is tracked iff
//
//     hash(document) < rate * 2^64
//
// (spatial sampling — every reference to a sampled document is seen, every
// other document is invisible), reuse distances measured over the sampled
// population are scaled by 1/rate, and per-reference statistics are
// weighted by 1/rate. Memory is O(sampled documents), independent of trace
// length, so miss-ratio curves for 10^8-10^9-request streams fit in a few
// MB at rate 0.01. Each capacity point carries a conservative expected-
// error estimate (99% normal bound over the effective sample size, plus a
// small-sample and a model-bias term — the stack-inclusion criterion
// ignores eviction-boundary effects that the exact engine models).
//
// The standard rate-adaptive variant caps the tracked population
// (`max_sampled_documents`): when the cap is exceeded, the documents with
// the largest hash values are dropped and the threshold lowers to the
// largest surviving hash, so the effective rate adapts to the stream's
// cardinality. References are weighted by the rate in force when they were
// processed.
//
// rate == 1.0 degenerates to the exact route: run() replays one LRU
// simulate() cell per capacity on the materialized trace, any capacity
// allowed, and the points carry zero error — unless max_sampled_documents
// is set, in which case the cap keeps the sampled engine engaged (bounded
// memory is the point of the cap).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/dense_trace.hpp"
#include "trace/request.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {

struct SampledSweepConfig {
  /// Capacity ladder; any order, may repeat. Results come back in order.
  std::vector<std::uint64_t> capacities;

  /// Same option validation as simulate().
  SimulatorOptions simulator;

  /// Fraction of the document space tracked, in (0, 1]. 1.0 = exact
  /// (one LRU simulate() cell per capacity).
  double sample_rate = 0.01;

  /// Seed mixed into the sampling hash. Fixed seed => bit-reproducible
  /// curves; varying it gives independent replicates.
  std::uint64_t hash_seed = 0x5348415244530001ULL;

  /// 0 = fixed-rate sampling. Otherwise the rate-adaptive cap on tracked
  /// documents described above.
  std::size_t max_sampled_documents = 0;
};

/// One capacity point of the sampled curve.
struct SampledPoint {
  std::uint64_t capacity_bytes = 0;

  /// Estimated hit / byte-hit rates over the measured window.
  double hit_rate = 0.0;
  double byte_hit_rate = 0.0;

  /// Conservative expected absolute error of the estimates (0 when exact).
  double hit_rate_error = 0.0;
  double byte_hit_rate_error = 0.0;

  /// 1/rate-weighted counter estimates backing the rates.
  double est_requests = 0.0;
  double est_hits = 0.0;
  double est_requested_bytes = 0.0;
  double est_hit_bytes = 0.0;
};

struct SampledCurve {
  /// Points parallel the config's capacity ladder.
  std::vector<SampledPoint> points;

  /// Full SimResults for the ladder: exact ones when rate == 1.0, scaled
  /// counter estimates otherwise (eviction/bypass diagnostics are 0 in
  /// sampled runs — the estimator never materializes per-capacity caches).
  std::vector<SimResult> results;

  double configured_rate = 0.0;
  /// Final rate after adaptive threshold lowering (== configured_rate when
  /// max_sampled_documents is 0 or never exceeded).
  double effective_rate = 0.0;
  std::uint64_t hash_seed = 0;
  bool exact = false;

  std::uint64_t total_requests = 0;
  std::uint64_t warmup_requests = 0;
  std::uint64_t sampled_requests = 0;
  /// Peak number of documents tracked at once — the bounded-memory figure;
  /// never exceeds max_sampled_documents when the adaptive cap is set.
  std::uint64_t sampled_documents = 0;
};

class SampledSweep {
 public:
  /// Throws std::invalid_argument on an empty ladder, a rate outside
  /// (0, 1], or options that fail validation.
  explicit SampledSweep(SampledSweepConfig config);

  /// One pass over the stream (consumed; reset() to reuse). At rate 1.0
  /// the stream is materialized with dense ids (a WCT1 v4 stream's stored
  /// ids, else interned; trace::StreamIds) and each capacity replays one
  /// LRU simulate() cell on it — exactness requires the whole trace, so
  /// the bounded-memory property only holds for rate < 1. A materialized
  /// Trace goes through trace::MemoryRequestStream.
  SampledCurve run(trace::RequestStream& stream) const;

  /// Over a densified trace's records: documents are sampled and tracked
  /// by their original ids, so the curve is bit-identical to run() on the
  /// source trace. At rate 1.0 each capacity replays one LRU simulate()
  /// cell on the trace as it is.
  SampledCurve run(const trace::DenseTrace& trace) const;

  const SampledSweepConfig& config() const { return config_; }

 private:
  /// Rate 1.0 without an adaptive cap: the exact simulate() cells run.
  bool exact() const;
  SampledCurve blank_curve(std::uint64_t total_requests) const;
  SampledCurve exact_curve(const trace::DenseTrace& trace) const;
  // The sampled estimator over every chunk next_chunk() returns, until an
  // empty one; `original` (when set) maps each record's dense document id
  // back to the id that is hashed and tracked.
  template <typename NextChunk>
  SampledCurve estimate(std::uint64_t total_requests, NextChunk next_chunk,
                        const std::vector<trace::DocumentId>* original) const;

  SampledSweepConfig config_;
};

}  // namespace webcache::sim
