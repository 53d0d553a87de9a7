#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "util/fit.hpp"

namespace webcache::util {
namespace {

// ------------------------------------------------------------------ Zipf

TEST(Zipf, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfDistribution(0, 0.8), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(100, 0.8);
  double total = 0.0;
  for (std::uint64_t r = 1; r <= 100; ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, PmfOutOfRangeIsZero) {
  ZipfDistribution zipf(10, 0.8);
  EXPECT_EQ(zipf.pmf(0), 0.0);
  EXPECT_EQ(zipf.pmf(11), 0.0);
}

TEST(Zipf, PmfDecaysWithRank) {
  ZipfDistribution zipf(1000, 0.8);
  EXPECT_GT(zipf.pmf(1), zipf.pmf(2));
  EXPECT_GT(zipf.pmf(10), zipf.pmf(100));
  // Exact ratio: (1/2)^-0.8.
  EXPECT_NEAR(zipf.pmf(1) / zipf.pmf(2), std::pow(2.0, 0.8), 1e-9);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution zipf(50, 0.0);
  for (std::uint64_t r = 1; r <= 50; ++r) {
    EXPECT_NEAR(zipf.pmf(r), 1.0 / 50.0, 1e-12);
  }
}

TEST(Zipf, SamplesInRange) {
  ZipfDistribution zipf(42, 1.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 42u);
  }
}

TEST(Zipf, EmpiricalFrequenciesMatchPmf) {
  ZipfDistribution zipf(20, 0.9);
  Rng rng(9);
  std::map<std::uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::uint64_t r = 1; r <= 5; ++r) {
    const double expected = zipf.pmf(r);
    const double observed = static_cast<double>(counts[r]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "rank " << r;
  }
}

TEST(Zipf, SampledRankFrequencySlopeMatchesAlpha) {
  // The defining property: log(count) vs log(rank) has slope -alpha.
  const double alpha = 0.75;
  ZipfDistribution zipf(5000, alpha);
  Rng rng(12);
  std::vector<double> counts(5000, 0.0);
  for (int i = 0; i < 400000; ++i) counts[zipf.sample(rng) - 1] += 1.0;
  std::vector<std::pair<double, double>> points;
  for (std::size_t r = 0; r < 200; ++r) {
    if (counts[r] > 0) {
      points.emplace_back(static_cast<double>(r + 1), counts[r]);
    }
  }
  const LineFit fit = fit_loglog(points);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(-fit.slope, alpha, 0.08);
}

// ------------------------------------------------------------- Lognormal

TEST(Lognormal, RejectsInvalidParameters) {
  EXPECT_THROW(LognormalSizeDistribution(5.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LognormalSizeDistribution(5.0, -1.0), std::invalid_argument);
  EXPECT_THROW(LognormalSizeDistribution(3.0, 5.0), std::invalid_argument);
}

TEST(Lognormal, ParameterRoundTrip) {
  LognormalSizeDistribution d(10000.0, 3000.0);
  EXPECT_NEAR(d.mean(), 10000.0, 1e-6);
  EXPECT_NEAR(d.median(), 3000.0, 1e-6);
}

TEST(Lognormal, DegenerateMeanEqualsMedian) {
  LognormalSizeDistribution d(5.0, 5.0);
  EXPECT_EQ(d.sigma(), 0.0);
  Rng rng(3);
  EXPECT_NEAR(d.sample(rng), 5.0, 1e-9);
}

TEST(Lognormal, EmpiricalMeanAndMedian) {
  LognormalSizeDistribution d(8500.0, 3200.0);
  Rng rng(21);
  std::vector<double> samples;
  const int n = 200000;
  double sum = 0.0;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    EXPECT_GT(x, 0.0);
    samples.push_back(x);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 8500.0, 8500.0 * 0.03);
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 3200.0, 3200.0 * 0.03);
}

TEST(Lognormal, CovFormula) {
  LognormalSizeDistribution d(10.0, 4.0);
  const double sigma2 = d.sigma() * d.sigma();
  EXPECT_NEAR(d.cov(), std::sqrt(std::exp(sigma2) - 1.0), 1e-12);
  // CoV grows with mean/median skew.
  LognormalSizeDistribution skewed(40.0, 4.0);
  EXPECT_GT(skewed.cov(), d.cov());
}

// --------------------------------------------------------- BoundedPareto

TEST(BoundedPareto, RejectsInvalidParameters) {
  EXPECT_THROW(BoundedParetoDistribution(0.0, 1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(1.2, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(1.2, 3.0, 2.0), std::invalid_argument);
}

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedParetoDistribution d(1.1, 100.0, 100000.0);
  Rng rng(33);
  for (int i = 0; i < 20000; ++i) {
    const double x = d.sample(rng);
    EXPECT_GE(x, 100.0);
    EXPECT_LE(x, 100000.0);
  }
}

TEST(BoundedPareto, EmpiricalMeanMatchesAnalytic) {
  BoundedParetoDistribution d(1.3, 1000.0, 1000000.0);
  Rng rng(35);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, d.mean(), d.mean() * 0.05);
}

TEST(BoundedPareto, HeavyTailProducesHighVariability) {
  BoundedParetoDistribution d(1.05, 1000.0, 10000000.0);
  Rng rng(37);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_GT(std::sqrt(var) / mean, 2.0);  // CoV well above lognormal bodies
}

// ------------------------------------------------------- PowerLawGap

TEST(PowerLawGap, RejectsInvalidParameters) {
  EXPECT_THROW(PowerLawGapDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(PowerLawGapDistribution(10, -0.5), std::invalid_argument);
}

TEST(PowerLawGap, PmfSumsToOne) {
  PowerLawGapDistribution d(500, 0.9);
  double total = 0.0;
  for (std::uint64_t g = 1; g <= 500; ++g) total += d.pmf(g);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PowerLawGap, ShortGapsDominate) {
  PowerLawGapDistribution d(10000, 1.0);
  Rng rng(41);
  int short_gaps = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) <= 10) ++short_gaps;
  }
  EXPECT_GT(static_cast<double>(short_gaps) / n, 0.25);
}

TEST(PowerLawGap, EmpiricalSlopeMatchesBeta) {
  const double beta = 0.8;
  PowerLawGapDistribution d(100000, beta);
  Rng rng(43);
  std::map<std::uint64_t, double> counts;
  for (int i = 0; i < 500000; ++i) ++counts[d.sample(rng)];
  std::vector<std::pair<double, double>> points;
  for (std::uint64_t g = 1; g <= 64; ++g) {
    if (counts.count(g)) {
      points.emplace_back(static_cast<double>(g), counts[g]);
    }
  }
  const LineFit fit = fit_loglog(points);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(-fit.slope, beta, 0.08);
}

// ----------------------------------------------------------- Discrete

TEST(Discrete, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({0.0, 0.0}), std::invalid_argument);
}

TEST(Discrete, NormalizesWeights) {
  DiscreteDistribution d({2.0, 6.0});
  EXPECT_NEAR(d.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(d.probability(1), 0.75, 1e-12);
  EXPECT_EQ(d.probability(2), 0.0);
}

TEST(Discrete, ZeroWeightIndexNeverSampled) {
  DiscreteDistribution d({1.0, 0.0, 1.0});
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_NE(d.sample(rng), 1u);
  }
}

TEST(Discrete, FrequenciesMatchWeights) {
  DiscreteDistribution d({0.7, 0.2, 0.1});
  Rng rng(53);
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[d.sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.7, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.1, 0.01);
}

// ------------------------------------------------------------- GuidedCdf

// The answer GuidedCdf must reproduce: std::lower_bound's first index with
// cdf[i] >= u, clamped to the last entry.
std::size_t lower_bound_index(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

std::vector<double> power_cdf(std::size_t n, double exponent) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -exponent);
    cdf[i] = total;
  }
  for (double& v : cdf) v /= total;
  cdf.back() = 1.0;
  return cdf;
}

// Every entry, one ulp either side of it, the bucket edges, 0, -0, 1, past
// 1, NaN and random u all give lower_bound's index.
void expect_guided_matches_lower_bound(const std::vector<double>& cdf) {
  const GuidedCdf guided(cdf);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {0.0, -0.0, -1.0, 1.0, 1.5, inf,
                                std::numeric_limits<double>::min()};
  for (const double v : cdf) {
    probes.push_back(v);
    probes.push_back(std::nextafter(v, -inf));
    probes.push_back(std::nextafter(v, inf));
  }
  for (std::size_t b = 0; b <= GuidedCdf::kBuckets; ++b) {
    const double edge = static_cast<double>(b) / GuidedCdf::kBuckets;
    probes.push_back(edge);
    probes.push_back(std::nextafter(edge, -inf));
  }
  Rng rng(61);
  for (int i = 0; i < 20000; ++i) probes.push_back(rng.uniform());
  for (const double u : probes) {
    ASSERT_EQ(guided.lookup(u), lower_bound_index(cdf, u)) << "u = " << u;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(guided.lookup(nan), lower_bound_index(cdf, nan));
}

TEST(GuidedCdf, MatchesLowerBoundOnPowerLaws) {
  for (const std::size_t n : {1u, 2u, 7u, 100u, 5000u, 32768u}) {
    for (const double exponent : {0.0, 0.6, 1.0, 1.9}) {
      SCOPED_TRACE(testing::Message()
                   << "n " << n << " exponent " << exponent);
      expect_guided_matches_lower_bound(power_cdf(n, exponent));
    }
  }
}

TEST(GuidedCdf, MatchesLowerBoundWithTiesAndBucketEdges) {
  // Zero weights repeat an entry (several indices share a value, including
  // the final 1.0), and entries sitting exactly on bucket edges are where
  // an off-by-one in the guide would show.
  const double edge = 1.0 / GuidedCdf::kBuckets;
  expect_guided_matches_lower_bound({0.25, 0.25, 0.5, 1.0, 1.0, 1.0});
  expect_guided_matches_lower_bound({0.0, 0.0, edge, edge, 3 * edge, 0.5,
                                     1.0 - edge, 1.0});
  expect_guided_matches_lower_bound({1e-300, 1e-12, edge / 2, 1.0});
  // A CDF that never reaches 1 (lookups past its last entry clamp).
  expect_guided_matches_lower_bound({0.1, 0.2, 0.3});
}

TEST(GuidedCdf, DistributionsDrawTheLowerBoundIndex) {
  // The three distributions draw through the guide; the same uniforms
  // through lower_bound over CDFs built the way their constructors build
  // them pick the same index.
  const ZipfDistribution zipf(3000, 1.0);
  const PowerLawGapDistribution gap(32768, 0.4);
  const std::vector<double> weights = {0.5, 0.0, 0.3, 0.2, 0.0};
  const DiscreteDistribution discrete(weights);
  const std::vector<double> zipf_cdf = power_cdf(3000, 1.0);
  const std::vector<double> gap_cdf = power_cdf(32768, 0.4);
  std::vector<double> discrete_cdf;
  double acc = 0.0;
  for (const double w : weights) discrete_cdf.push_back(acc += w);  // sum 1
  discrete_cdf.back() = 1.0;
  Rng draws(67);
  Rng uniforms(67);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(zipf.sample(draws),
              lower_bound_index(zipf_cdf, uniforms.uniform()) + 1);
    ASSERT_EQ(gap.sample(draws),
              lower_bound_index(gap_cdf, uniforms.uniform()) + 1);
    ASSERT_EQ(discrete.sample(draws),
              lower_bound_index(discrete_cdf, uniforms.uniform()));
  }
}

TEST(GuidedCdf, RejectsEmptyCdf) {
  EXPECT_THROW(GuidedCdf(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace webcache::util
