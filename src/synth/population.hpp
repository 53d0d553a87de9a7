// Per-class document populations: exact Zipf reference counts plus sizes.
//
// Rather than drawing requests from a Zipf urn (which only hits distinct-
// document targets in expectation), the generator follows the ProWGen
// approach: assign every document an exact reference count
//     count(rank) = max(1, C * rank^-alpha)
// with C solved so the counts sum to the class's request budget. This gives
// the trace the paper's Table-2/3 rows *exactly* — every document referenced
// at least once, heavy one-timer plateau, alpha-sloped head.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/profile.hpp"
#include "trace/request.hpp"
#include "util/rng.hpp"

namespace webcache::synth {

/// The built population of one document class.
struct ClassPopulation {
  trace::DocumentClass doc_class = trace::DocumentClass::kOther;

  /// Reference count per document, descending in rank; sums to the class's
  /// request budget. Index i is document rank i+1.
  std::vector<std::uint32_t> reference_counts;

  /// Document size in bytes per document (same indexing).
  std::vector<std::uint64_t> sizes;

  std::uint64_t document_count() const { return reference_counts.size(); }
  std::uint64_t total_bytes() const;
};

/// Globally unique DocumentId for rank index i of a class (class tag in the
/// top byte).
trace::DocumentId document_id(trace::DocumentClass doc_class, std::uint64_t i);

/// Solves for the Zipf scale C such that sum_i max(1, C * i^-alpha) equals
/// `requests` over `documents` ranks (within rounding), then materializes
/// the counts and distributes the rounding remainder over the top ranks.
/// Requires requests >= documents >= 1.
std::vector<std::uint32_t> zipf_reference_counts(std::uint64_t documents,
                                                 std::uint64_t requests,
                                                 double alpha);

/// Draws document sizes per the class profile (lognormal body, optional
/// bounded-Pareto tail), independent of rank. Sizes are floored at 64 bytes.
std::vector<std::uint64_t> draw_sizes(const ClassProfile& profile,
                                      std::uint64_t documents,
                                      util::Rng& rng);

/// Builds one class population from its profile slice of the workload.
/// Returns an empty population when the class has a zero share.
ClassPopulation build_population(const ClassProfile& profile,
                                 std::uint64_t class_documents,
                                 std::uint64_t class_requests, util::Rng& rng);

}  // namespace webcache::synth
