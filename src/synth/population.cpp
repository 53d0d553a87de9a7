#include "synth/population.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/distributions.hpp"

namespace webcache::synth {

std::uint64_t ClassPopulation::total_bytes() const {
  std::uint64_t total = 0;
  for (std::uint64_t s : sizes) total += s;
  return total;
}

trace::DocumentId document_id(trace::DocumentClass doc_class, std::uint64_t i) {
  // Top byte tags the class so ids are globally unique across classes; the
  // +1 keeps id 0 unused.
  return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(doc_class)) + 1)
             << 56 |
         (i + 1);
}

std::vector<std::uint32_t> zipf_reference_counts(std::uint64_t documents,
                                                 std::uint64_t requests,
                                                 double alpha) {
  if (documents == 0) return {};
  if (requests < documents) {
    throw std::invalid_argument(
        "zipf_reference_counts: need at least one request per document");
  }

  // The Zipf shape rank^-alpha, computed once: the 60 bisection steps and
  // the final rounding all read it.
  std::vector<double> shape(documents);
  for (std::uint64_t i = 0; i < documents; ++i) {
    shape[i] = std::pow(static_cast<double>(i + 1), -alpha);
  }
  const auto sum_for = [&](double scale) -> double {
    double total = 0.0;
    for (const double s : shape) total += std::max(1.0, scale * s);
    return total;
  };

  // Binary-search the Zipf scale. sum_for is monotone in the scale, between
  // documents (scale -> 0) and unbounded (scale -> inf).
  const double target = static_cast<double>(requests);
  double lo = 0.0;
  double hi = target;  // count(1) = hi alone already exceeds the target
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (sum_for(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double scale = (lo + hi) / 2.0;

  std::vector<std::uint32_t> counts(documents);
  std::uint64_t assigned = 0;
  for (std::uint64_t i = 0; i < documents; ++i) {
    const double raw = std::max(1.0, scale * shape[i]);
    const auto c = static_cast<std::uint32_t>(std::llround(raw));
    counts[i] = std::max<std::uint32_t>(1, c);
    assigned += counts[i];
  }

  // Distribute the rounding remainder over the head of the distribution
  // (or shave it off, never below one reference).
  if (assigned < requests) {
    std::uint64_t deficit = requests - assigned;
    std::uint64_t i = 0;
    while (deficit > 0) {
      ++counts[i % documents];
      --deficit;
      ++i;
    }
  } else if (assigned > requests) {
    std::uint64_t surplus = assigned - requests;
    std::uint64_t i = 0;
    while (surplus > 0 && i < documents) {
      if (counts[i] > 1) {
        --counts[i];
        --surplus;
      } else {
        ++i;
      }
    }
    if (surplus > 0) {
      throw std::logic_error("zipf_reference_counts: cannot meet budget");
    }
  }
  return counts;
}

std::vector<std::uint64_t> draw_sizes(const ClassProfile& profile,
                                      std::uint64_t documents,
                                      util::Rng& rng) {
  std::vector<std::uint64_t> sizes(documents);
  const util::LognormalSizeDistribution body(profile.size_mean_bytes,
                                             profile.size_median_bytes);
  std::optional<util::BoundedParetoDistribution> tail;
  if (profile.tail_fraction > 0.0) {
    tail.emplace(profile.tail_shape, profile.tail_lo_bytes,
                 profile.tail_hi_bytes);
  }
  for (auto& size : sizes) {
    const double raw = (tail && rng.chance(profile.tail_fraction))
                           ? tail->sample(rng)
                           : body.sample(rng);
    size = static_cast<std::uint64_t>(std::max(64.0, std::ceil(raw)));
  }
  return sizes;
}

ClassPopulation build_population(const ClassProfile& profile,
                                 std::uint64_t class_documents,
                                 std::uint64_t class_requests, util::Rng& rng) {
  ClassPopulation pop;
  pop.doc_class = profile.doc_class;
  if (class_documents == 0) return pop;
  // Sizes first: zipf_reference_counts draws no random numbers, so the
  // order changes no output; with glibc it keeps the counts' freed scratch
  // array from raising a generate's peak RSS.
  pop.sizes = draw_sizes(profile, class_documents, rng);
  pop.reference_counts =
      zipf_reference_counts(class_documents, class_requests, profile.alpha);
  return pop;
}

}  // namespace webcache::synth
