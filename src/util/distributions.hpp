// Random distributions used by the synthetic workload generator.
//
// The web-caching literature (Breslau et al., Arlitt & Williamson, Jin &
// Bestavros) models document popularity as Zipf-like with exponent alpha < 1,
// document sizes as lognormal with a heavy (Pareto) tail, and temporal
// correlation gaps as a truncated power law with exponent beta. This header
// provides exactly those building blocks, each seedable via util::Rng.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace webcache::util {

/// Inverse-CDF lookup table over a non-decreasing CDF of values >= 0 (the
/// cumulative weights of a distribution). A guide table of
/// kBuckets + 1 entries holds, for each bucket b, the first index whose CDF
/// value is >= b / kBuckets; a lookup jumps to its bucket and searches only
/// the entries up to the next bucket's first index (one or two for the
/// distributions here; a binary search when the range is long), instead of
/// binary-searching the whole CDF.
class GuidedCdf {
 public:
  static constexpr std::size_t kBuckets = 4096;

  GuidedCdf() = default;  // empty: lookup() needs a built table
  explicit GuidedCdf(std::vector<double> cdf);

  /// The first index i with cdf[i] >= u, or the last index when there is
  /// none: exactly std::lower_bound's answer, clamped to the last entry.
  std::size_t lookup(double u) const;

  double operator[](std::size_t i) const { return cdf_[i]; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

/// Zipf-like distribution over ranks 1..n: P(rank = r) proportional to
/// r^-alpha. Supports alpha in [0, ~2]; alpha = 0 degenerates to uniform.
///
/// Sampling uses a guided inverse-CDF lookup over precomputed cumulative
/// weights (GuidedCdf: O(1) expected per draw, O(n) memory). For the
/// population sizes used here (<= a few million) this is both exact and
/// fast.
class ZipfDistribution {
 public:
  ZipfDistribution(std::uint64_t n, double alpha);

  /// Draws a rank in [1, n].
  std::uint64_t sample(Rng& rng) const;

  /// Probability mass of the given rank (1-based).
  double pmf(std::uint64_t rank) const;

  std::uint64_t size() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  std::uint64_t n_;
  double alpha_;
  GuidedCdf cdf_;  // cdf_[i] = P(rank <= i + 1), cdf_[n - 1] == 1
};

/// Lognormal distribution parameterized the way workload tables report
/// sizes: by mean and median. For LogNormal(mu, sigma):
///   median = exp(mu), mean = exp(mu + sigma^2 / 2)
/// so   mu = ln(median), sigma = sqrt(2 ln(mean / median)).
/// Requires mean >= median > 0.
class LognormalSizeDistribution {
 public:
  LognormalSizeDistribution(double mean, double median);

  double sample(Rng& rng) const;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }
  double mean() const;
  double median() const;
  /// Coefficient of variation implied by the parameters.
  double cov() const;

 private:
  double mu_;
  double sigma_;
};

/// Bounded Pareto distribution on [lo, hi] with shape a > 0. Used for the
/// heavy tail of multi-media / application document sizes, where a plain
/// lognormal underestimates the coefficient of variation.
class BoundedParetoDistribution {
 public:
  BoundedParetoDistribution(double shape, double lo, double hi);

  double sample(Rng& rng) const;

  double shape() const { return shape_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double mean() const;

 private:
  double shape_;
  double lo_;
  double hi_;
};

/// Truncated discrete power law over {1, ..., max_gap}:
/// P(g) proportional to g^-beta. Models the temporal-correlation gap
/// distribution of Jin & Bestavros: the probability that a document is
/// re-referenced n requests after its previous reference decays as n^-beta.
class PowerLawGapDistribution {
 public:
  PowerLawGapDistribution(std::uint64_t max_gap, double beta);

  std::uint64_t sample(Rng& rng) const;
  double pmf(std::uint64_t gap) const;

  std::uint64_t max_gap() const { return max_gap_; }
  double beta() const { return beta_; }

 private:
  std::uint64_t max_gap_;
  double beta_;
  GuidedCdf cdf_;
};

/// General discrete distribution over indices 0..k-1 given non-negative
/// weights. Used for the per-request document-class mix.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> weights);

  std::size_t sample(Rng& rng) const;
  double probability(std::size_t index) const;
  std::size_t size() const { return weights_.size(); }

 private:
  std::vector<double> weights_;  // normalized
  GuidedCdf cdf_;
};

}  // namespace webcache::util
