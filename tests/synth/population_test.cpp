#include "synth/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/fit.hpp"

namespace webcache::synth {
namespace {

TEST(ZipfCounts, ExactBudget) {
  for (const auto& [docs, reqs] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {1, 1}, {1, 100}, {10, 10}, {100, 225}, {5000, 11250}}) {
    const auto counts = zipf_reference_counts(docs, reqs, 0.8);
    ASSERT_EQ(counts.size(), docs);
    const std::uint64_t total =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    EXPECT_EQ(total, reqs) << docs << " docs, " << reqs << " reqs";
  }
}

TEST(ZipfCounts, EveryDocumentReferencedAtLeastOnce) {
  const auto counts = zipf_reference_counts(1000, 2300, 0.9);
  for (const auto c : counts) EXPECT_GE(c, 1u);
}

TEST(ZipfCounts, CountsNonIncreasing) {
  const auto counts = zipf_reference_counts(2000, 5000, 0.7);
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i - 1] + 1, counts[i]);  // +1: remainder distribution
  }
}

TEST(ZipfCounts, HeadSlopeMatchesAlpha) {
  const double alpha = 0.8;
  // Generous budget so the head is far above the one-timer floor.
  const auto counts = zipf_reference_counts(20000, 200000, alpha);
  std::vector<std::pair<double, double>> points;
  for (std::size_t i = 0; i < 200; ++i) {
    points.emplace_back(static_cast<double>(i + 1),
                        static_cast<double>(counts[i]));
  }
  const util::LineFit fit = util::fit_loglog(points);
  ASSERT_TRUE(fit.valid());
  EXPECT_NEAR(-fit.slope, alpha, 0.1);
}

TEST(ZipfCounts, OneTimersDominateWhenBudgetTight) {
  // requests/docs = 2.25 as in the DFN trace: most documents must be
  // one-timers, matching the extreme non-uniformity observed in [1].
  const auto counts = zipf_reference_counts(10000, 22500, 0.85);
  const auto one_timers = static_cast<double>(
      std::count(counts.begin(), counts.end(), 1u));
  EXPECT_GT(one_timers / 10000.0, 0.5);
}

TEST(ZipfCounts, RejectsImpossibleBudget) {
  EXPECT_THROW(zipf_reference_counts(10, 5, 0.8), std::invalid_argument);
}

TEST(ZipfCounts, EmptyPopulation) {
  EXPECT_TRUE(zipf_reference_counts(0, 0, 0.8).empty());
}

// zipf_reference_counts as it was before it cached the Zipf shape: every
// bisection step recomputed pow(i, -alpha). The cached form must produce
// identical counts (the generator's bytes depend on them).
std::vector<std::uint32_t> per_step_pow_counts(std::uint64_t documents,
                                               std::uint64_t requests,
                                               double alpha) {
  const auto sum_for = [&](double scale) -> double {
    double total = 0.0;
    for (std::uint64_t i = 1; i <= documents; ++i) {
      total += std::max(1.0, scale * std::pow(static_cast<double>(i), -alpha));
    }
    return total;
  };
  const double target = static_cast<double>(requests);
  double lo = 0.0;
  double hi = target;
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
    const double raw =
        std::max(1.0, scale * std::pow(static_cast<double>(i + 1), -alpha));
    counts[i] = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(raw)));
    assigned += counts[i];
  }
  if (assigned < requests) {
    for (std::uint64_t i = 0; assigned < requests; ++i, ++assigned) {
      ++counts[i % documents];
    }
  } else {
    std::uint64_t surplus = assigned - requests;
    for (std::uint64_t i = 0; surplus > 0 && i < documents;) {
      if (counts[i] > 1) {
        --counts[i];
        --surplus;
      } else {
        ++i;
      }
    }
  }
  return counts;
}

TEST(ZipfCounts, MatchesPerStepPowForm) {
  for (const std::uint64_t docs : {1ull, 2ull, 17ull, 100000ull}) {
    for (const std::uint64_t reqs : {docs, docs * 37 + 5}) {
      for (const double alpha : {0.0, 0.6, 1.0, 1.9}) {
        EXPECT_EQ(zipf_reference_counts(docs, reqs, alpha),
                  per_step_pow_counts(docs, reqs, alpha))
            << docs << " docs, " << reqs << " reqs, alpha " << alpha;
      }
    }
  }
}

TEST(ZipfCounts, AlphaZeroSpreadsEvenly) {
  const auto counts = zipf_reference_counts(100, 300, 0.0);
  for (const auto c : counts) {
    EXPECT_GE(c, 2u);
    EXPECT_LE(c, 4u);
  }
}

TEST(DrawSizes, RespectsFloorAndDistribution) {
  ClassProfile profile;
  profile.doc_class = trace::DocumentClass::kHtml;
  profile.size_mean_bytes = 13.0 * 1024;
  profile.size_median_bytes = 5.5 * 1024;
  util::Rng rng(3);
  const auto sizes = draw_sizes(profile, 50000, rng);
  ASSERT_EQ(sizes.size(), 50000u);
  double sum = 0.0;
  std::vector<double> v;
  v.reserve(sizes.size());
  for (const auto s : sizes) {
    EXPECT_GE(s, 64u);
    sum += static_cast<double>(s);
    v.push_back(static_cast<double>(s));
  }
  EXPECT_NEAR(sum / 50000.0, 13.0 * 1024, 13.0 * 1024 * 0.05);
  std::nth_element(v.begin(), v.begin() + 25000, v.end());
  EXPECT_NEAR(v[25000], 5.5 * 1024, 5.5 * 1024 * 0.05);
}

TEST(DrawSizes, ParetoTailRaisesVariability) {
  ClassProfile no_tail;
  no_tail.size_mean_bytes = 100 * 1024;
  no_tail.size_median_bytes = 90 * 1024;

  ClassProfile with_tail = no_tail;
  with_tail.tail_fraction = 0.05;
  with_tail.tail_shape = 1.1;
  with_tail.tail_lo_bytes = 1 << 21;
  with_tail.tail_hi_bytes = 1 << 26;

  util::Rng rng1(5), rng2(5);
  const auto plain = draw_sizes(no_tail, 20000, rng1);
  const auto heavy = draw_sizes(with_tail, 20000, rng2);
  auto cov = [](const std::vector<std::uint64_t>& xs) {
    double sum = 0, sum2 = 0;
    for (const auto x : xs) {
      sum += static_cast<double>(x);
      sum2 += static_cast<double>(x) * static_cast<double>(x);
    }
    const double mean = sum / static_cast<double>(xs.size());
    return std::sqrt(sum2 / static_cast<double>(xs.size()) - mean * mean) /
           mean;
  };
  EXPECT_GT(cov(heavy), cov(plain) * 2.0);
}

TEST(Population, DocumentIdsGloballyUnique) {
  ClassProfile img;
  img.doc_class = trace::DocumentClass::kImage;
  img.size_mean_bytes = 1000;
  img.size_median_bytes = 800;
  ClassProfile app = img;
  app.doc_class = trace::DocumentClass::kApplication;

  util::Rng rng(7);
  const ClassPopulation a = build_population(img, 100, 250, rng);
  const ClassPopulation b = build_population(app, 100, 250, rng);
  EXPECT_NE(document_id(a.doc_class, 0), document_id(b.doc_class, 0));
  EXPECT_NE(document_id(a.doc_class, 0), document_id(a.doc_class, 1));
  EXPECT_EQ(std::accumulate(a.reference_counts.begin(),
                            a.reference_counts.end(), std::uint64_t{0}),
            250u);
  EXPECT_EQ(a.document_count(), 100u);
  EXPECT_GT(a.total_bytes(), 0u);
}

TEST(Population, EmptyClass) {
  ClassProfile p;
  util::Rng rng(9);
  const ClassPopulation pop = build_population(p, 0, 0, rng);
  EXPECT_EQ(pop.document_count(), 0u);
  EXPECT_TRUE(pop.sizes.empty());
}

}  // namespace
}  // namespace webcache::synth
