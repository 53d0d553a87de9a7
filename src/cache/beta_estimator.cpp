#include "cache/beta_estimator.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fit.hpp"

namespace webcache::cache {

BetaEstimator::BetaEstimator(const Options& options)
    : options_(options), histogram_(2.0, 48) {
  if (!(options.min_beta > 0.0 && options.min_beta <= options.max_beta)) {
    throw std::invalid_argument("BetaEstimator: invalid beta clamp range");
  }
  if (options.initial_beta < options.min_beta ||
      options.initial_beta > options.max_beta) {
    throw std::invalid_argument("BetaEstimator: initial beta outside clamp");
  }
  if (!(options.decay > 0.0 && options.decay <= 1.0)) {
    throw std::invalid_argument("BetaEstimator: decay must be in (0, 1]");
  }
  set_beta(options.initial_beta);
}

void BetaEstimator::observe_gap(std::uint64_t gap) {
  histogram_.add(static_cast<double>(std::max<std::uint64_t>(1, gap)));
  ++samples_;
  ++since_refit_;
  if (samples_ >= options_.min_samples &&
      since_refit_ >= options_.refit_interval) {
    refit();
    since_refit_ = 0;
  }
}

void BetaEstimator::refit() {
  const auto points = histogram_.density_points();
  // A power law needs at least three decades of support to be fit sensibly.
  if (points.size() >= 3) {
    const util::LineFit fit = util::fit_loglog(points);
    if (fit.valid()) {
      set_beta(std::clamp(-fit.slope, options_.min_beta, options_.max_beta));
    }
  }
  histogram_.scale(options_.decay);
}

void BetaEstimator::clear() {
  histogram_.clear();
  set_beta(options_.initial_beta);
  samples_ = 0;
  since_refit_ = 0;
}

}  // namespace webcache::cache
