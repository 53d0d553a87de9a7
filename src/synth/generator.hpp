// The two-source synthetic request engine.
//
// Temporal locality in web request streams has two distinct sources (Jin &
// Bestavros; paper Section 2): long-term *popularity* (some documents are
// hot) and short-term *temporal correlation* (a re-reference is likely soon
// after a reference, with gap probability ~ n^-beta). The generator models
// them explicitly, per document class:
//
//   for each request slot of class c:
//     with probability correlation_probability:
//       draw a gap g ~ PowerLaw(beta_c) and re-reference the document seen
//       g class-requests ago (falling back to the popularity source if that
//       document's reference budget is exhausted)
//     otherwise:
//       draw a document proportionally to its remaining Zipf reference
//       count (weighted sampling without replacement via util::CountTree)
//
// Class interleaving uses an exact token shuffle, so the per-class request
// counts match the profile exactly. Document modifications (< 5% size
// perturbation) and interrupted transfers (transfer < document size, more
// likely for large documents) are injected per Section 4.1 of the paper.
#pragma once

#include <cstdint>
#include <memory>

#include "synth/population.hpp"
#include "synth/profile.hpp"
#include "trace/request.hpp"
#include "trace/request_stream.hpp"
#include "util/rng.hpp"

namespace webcache::synth {

struct GeneratorOptions {
  std::uint64_t seed = 42;
  /// Per-class history ring for correlation draws; also the maximum
  /// temporal-correlation gap (in class requests).
  std::size_t history_capacity = 32768;
  /// Size of the client population; requests are attributed to clients via
  /// a Zipf(1.0) draw (heavy browsers exist). 0 = auto:
  /// max(16, total_requests / 2000). Document choice is independent of the
  /// client (shared popularity), a deliberate simplification.
  std::uint32_t clients = 0;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(WorkloadProfile profile, GeneratorOptions options = {});

  /// Materializes the full trace. Deterministic in (profile, options.seed).
  trace::Trace generate();

  /// Streaming generation: yields the workload in bounded chunks without
  /// ever materializing it, so benches can drive 10^8-10^9-request runs at
  /// O(distinct documents) memory. Deterministic in (profile, options.seed)
  /// and invariant to chunk_records; reset() replays the identical stream.
  ///
  /// The class interleaving is drawn online without replacement (each
  /// request picks a class proportionally to its remaining budget) instead
  /// of generate()'s materialized token shuffle, so per-class totals still
  /// match the profile exactly but the interleaving is a different —
  /// equally valid — sample than generate()'s. generate() itself is
  /// untouched; golden fixtures depend on its byte-identical output.
  std::unique_ptr<trace::RequestStream> stream(
      std::size_t chunk_records = 1 << 16) const;

  const WorkloadProfile& profile() const { return profile_; }

 private:
  WorkloadProfile profile_;
  GeneratorOptions options_;
};

/// Effective interruption probability for a document of `size` bytes:
/// the class's base probability scaled by min(1, size / 512 KiB), so small
/// documents are almost never aborted while multi-megabyte transfers are
/// interrupted at close to the base rate (paper, Section 4.1: "users are
/// likely to interrupt transfers due to large transfer times").
double effective_interrupt_probability(double base_probability,
                                       std::uint64_t size);

}  // namespace webcache::synth
