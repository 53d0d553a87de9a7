#include "util/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace webcache::util {

namespace {

std::vector<double> power_law_cdf(std::uint64_t n, double exponent) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -exponent);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;
  cdf.back() = 1.0;
  return cdf;
}

}  // namespace

// ----------------------------------------------------------- GuidedCdf

GuidedCdf::GuidedCdf(std::vector<double> cdf)
    : cdf_(std::move(cdf)), guide_(kBuckets + 1) {
  if (cdf_.empty() || cdf_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("GuidedCdf: size must be in [1, 2^32)");
  }
  // guide_[b] = first index with cdf >= b / kBuckets (exact: kBuckets is a
  // power of two). The last bucket's bound is the end, so lookups of
  // u >= 1 still scan every trailing entry.
  std::size_t i = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double edge = static_cast<double>(b) / kBuckets;
    while (i < cdf_.size() && cdf_[i] < edge) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
  guide_[kBuckets] = static_cast<std::uint32_t>(cdf_.size());
}

std::size_t GuidedCdf::lookup(double u) const {
  // Bucket b = floor(u * kBuckets) has b / kBuckets <= u < (b + 1) /
  // kBuckets, so the answer lies in [guide_[b], guide_[b + 1]]. Every
  // entry before guide_[b] is < u; the entry at guide_[b + 1] (if any) is
  // >= u. NaN and u <= 0 take bucket 0, u >= 1 the last bucket.
  std::size_t b = 0;
  if (u >= 1.0) {
    b = kBuckets - 1;
  } else if (u > 0.0) {
    b = static_cast<std::size_t>(u * kBuckets);
  }
  const double* first = cdf_.data() + guide_[b];
  const double* last = cdf_.data() + guide_[b + 1];
  const double* it = first;
  if (last - first > 8) {
    it = std::lower_bound(first, last, u);
  } else {
    while (it != last && *it < u) ++it;
  }
  const auto index = static_cast<std::size_t>(it - cdf_.data());
  return std::min(index, cdf_.size() - 1);
}

// ---------------------------------------------------------------- Zipf

ZipfDistribution::ZipfDistribution(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be > 0");
  if (alpha < 0.0) throw std::invalid_argument("ZipfDistribution: alpha must be >= 0");
  cdf_ = GuidedCdf(power_law_cdf(n, alpha));
}

std::uint64_t ZipfDistribution::sample(Rng& rng) const {
  return cdf_.lookup(rng.uniform()) + 1;
}

double ZipfDistribution::pmf(std::uint64_t rank) const {
  if (rank < 1 || rank > n_) return 0.0;
  const double lo = rank == 1 ? 0.0 : cdf_[rank - 2];
  return cdf_[rank - 1] - lo;
}

// ----------------------------------------------------------- Lognormal

LognormalSizeDistribution::LognormalSizeDistribution(double mean, double median) {
  if (median <= 0.0) {
    throw std::invalid_argument("LognormalSizeDistribution: median must be > 0");
  }
  if (mean < median) {
    throw std::invalid_argument(
        "LognormalSizeDistribution: mean must be >= median (right-skewed)");
  }
  mu_ = std::log(median);
  sigma_ = std::sqrt(2.0 * std::log(mean / median));
}

double LognormalSizeDistribution::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.gaussian());
}

double LognormalSizeDistribution::mean() const {
  return std::exp(mu_ + sigma_ * sigma_ / 2.0);
}

double LognormalSizeDistribution::median() const { return std::exp(mu_); }

double LognormalSizeDistribution::cov() const {
  // CoV of a lognormal: sqrt(exp(sigma^2) - 1).
  return std::sqrt(std::exp(sigma_ * sigma_) - 1.0);
}

// ------------------------------------------------------ Bounded Pareto

BoundedParetoDistribution::BoundedParetoDistribution(double shape, double lo,
                                                     double hi)
    : shape_(shape), lo_(lo), hi_(hi) {
  if (shape <= 0.0) {
    throw std::invalid_argument("BoundedParetoDistribution: shape must be > 0");
  }
  if (!(0.0 < lo && lo < hi)) {
    throw std::invalid_argument("BoundedParetoDistribution: need 0 < lo < hi");
  }
}

double BoundedParetoDistribution::sample(Rng& rng) const {
  // Inverse-CDF of the bounded Pareto.
  const double u = rng.uniform();
  const double la = std::pow(lo_, shape_);
  const double ha = std::pow(hi_, shape_);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / shape_);
}

double BoundedParetoDistribution::mean() const {
  const double a = shape_;
  if (a == 1.0) {
    return (std::log(hi_) - std::log(lo_)) * lo_ * hi_ / (hi_ - lo_);
  }
  const double la = std::pow(lo_, a);
  return la / (1.0 - std::pow(lo_ / hi_, a)) * (a / (a - 1.0)) *
         (std::pow(lo_, 1.0 - a) - std::pow(hi_, 1.0 - a));
}

// ------------------------------------------------------ Power-law gaps

PowerLawGapDistribution::PowerLawGapDistribution(std::uint64_t max_gap,
                                                 double beta)
    : max_gap_(max_gap), beta_(beta) {
  if (max_gap == 0) {
    throw std::invalid_argument("PowerLawGapDistribution: max_gap must be > 0");
  }
  if (beta < 0.0) {
    throw std::invalid_argument("PowerLawGapDistribution: beta must be >= 0");
  }
  cdf_ = GuidedCdf(power_law_cdf(max_gap, beta));
}

std::uint64_t PowerLawGapDistribution::sample(Rng& rng) const {
  return cdf_.lookup(rng.uniform()) + 1;
}

double PowerLawGapDistribution::pmf(std::uint64_t gap) const {
  if (gap < 1 || gap > max_gap_) return 0.0;
  const double lo = gap == 1 ? 0.0 : cdf_[gap - 2];
  return cdf_[gap - 1] - lo;
}

// ------------------------------------------------------------ Discrete

DiscreteDistribution::DiscreteDistribution(std::vector<double> weights)
    : weights_(std::move(weights)) {
  if (weights_.empty()) {
    throw std::invalid_argument("DiscreteDistribution: no weights");
  }
  double total = 0.0;
  for (double w : weights_) {
    if (w < 0.0) {
      throw std::invalid_argument("DiscreteDistribution: negative weight");
    }
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("DiscreteDistribution: all weights zero");
  }
  std::vector<double> cdf(weights_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] /= total;
    acc += weights_[i];
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  cdf_ = GuidedCdf(std::move(cdf));
}

std::size_t DiscreteDistribution::sample(Rng& rng) const {
  return cdf_.lookup(rng.uniform());
}

double DiscreteDistribution::probability(std::size_t index) const {
  return index < weights_.size() ? weights_[index] : 0.0;
}

}  // namespace webcache::util
