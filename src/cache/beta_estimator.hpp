// Online estimator of the temporal-correlation exponent beta.
//
// Jin & Bestavros model temporal correlation as: for equally popular
// documents, the probability of a re-reference n requests after the previous
// reference decays as n^-beta. "The novel feature of GD* is that f(p) and
// beta can be calculated in an on-line fashion, which makes the algorithm
// adaptive to these workload characteristics" (paper, Section 3).
//
// This estimator bins observed inter-reference gaps into logarithmic
// buckets and periodically refits beta as the negative slope of the
// least-squares line through the log-log gap-density plot. Between refits
// the cached value is returned, so the per-request cost is O(1).
#pragma once

#include <cstdint>

#include "util/histogram.hpp"

namespace webcache::util {
class StateWriter;
class StateReader;
}  // namespace webcache::util

namespace webcache::cache {

class BetaEstimator {
 public:
  struct Options {
    double initial_beta = 1.0;    // used until enough gaps are observed
    double min_beta = 0.1;        // clamp: keeps 1/beta finite and sane
    double max_beta = 2.0;
    std::uint64_t refit_interval = 4096;  // gaps between refits
    std::uint64_t min_samples = 256;      // gaps needed before first fit
    /// Exponential forgetting applied to the histogram at each refit, so
    /// the estimate tracks workload drift (1.0 = never forget).
    double decay = 0.9;
  };

  BetaEstimator() : BetaEstimator(Options{}) {}
  explicit BetaEstimator(const Options& options);

  /// Records one inter-reference gap, measured in requests (>= 1).
  void observe_gap(std::uint64_t gap);

  /// Current estimate of beta (clamped to [min_beta, max_beta]).
  double beta() const { return beta_; }
  /// 1 / beta(), the GD* utility exponent; recomputed only when beta
  /// changes (a refit, clear or restore), not on every request.
  double exponent() const { return exponent_; }

  std::uint64_t samples() const { return samples_; }

  void clear();

  /// Checkpoint support: the gap histogram plus the fitted value is the
  /// estimator's complete state (options are construction config and must
  /// match on restore).
  void save_state(util::StateWriter& w) const;
  void restore_state(util::StateReader& r);

 private:
  void refit();
  void set_beta(double beta) {
    beta_ = beta;
    exponent_ = 1.0 / beta;
  }

  Options options_;
  util::LogHistogram histogram_;
  double beta_;
  double exponent_;
  std::uint64_t samples_ = 0;
  std::uint64_t since_refit_ = 0;
};

}  // namespace webcache::cache
