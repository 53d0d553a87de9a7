#include "cache/greedy_dual.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/dense_trace.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {

CostValue::CostValue(std::string_view scheme, CostModelKind cost_model)
    : cost_model_(make_cost_model(cost_model)),
      name_(std::string(scheme) + "(" +
            std::string(cost_model_suffix(cost_model)) + ")") {}

GdStarValue::GdStarValue(CostModelKind cost_model,
                         std::optional<double> fixed_beta,
                         BetaEstimator::Options estimator_options)
    : CostValue("GD*", cost_model),
      fixed_beta_(fixed_beta),
      fixed_exponent_(fixed_beta ? 1.0 / *fixed_beta : 0.0),
      estimator_(estimator_options) {
  if (fixed_beta && *fixed_beta <= 0.0) {
    throw std::invalid_argument("GdStarPolicy: fixed beta must be > 0");
  }
  if (fixed_beta) name_ += " [beta=" + std::to_string(*fixed_beta) + "]";
}

namespace {

std::array<BetaEstimator, trace::kDocumentClassCount> make_estimators(
    const BetaEstimator::Options& options) {
  // Per-class gap volumes are far smaller than the global stream's, so the
  // estimators refit more eagerly than the global GD* default.
  BetaEstimator::Options per_class = options;
  per_class.refit_interval = std::max<std::uint64_t>(
      256, options.refit_interval / trace::kDocumentClassCount);
  per_class.min_samples =
      std::max<std::uint64_t>(64, options.min_samples / 2);
  return {BetaEstimator(per_class), BetaEstimator(per_class),
          BetaEstimator(per_class), BetaEstimator(per_class),
          BetaEstimator(per_class)};
}

}  // namespace

GdStarPerClassValue::GdStarPerClassValue(
    CostModelKind cost_model, BetaEstimator::Options estimator_options)
    : CostValue("GD*C", cost_model),
      estimators_(make_estimators(estimator_options)) {}

OptValue::OptValue(const trace::DenseTrace& trace) {
  const std::vector<trace::ReplayRecord>& records = trace.records;
  if (records.size() >= (std::uint64_t{1} << 32)) {
    throw std::length_error(
        "OptPolicy: " + std::to_string(records.size()) +
        " requests; the next-reference oracle holds 32-bit clocks, so a "
        "trace must have fewer than 2^32 requests");
  }
  next_.resize(records.size());
  // Backward pass: upcoming[d] is the clock of the nearest later request
  // for document d (0 while there is none).
  std::vector<std::uint32_t> upcoming(
      static_cast<std::size_t>(trace.document_count()), 0);
  for (std::size_t i = records.size(); i-- > 0;) {
    std::uint32_t& later = upcoming[records[i].document];
    next_[i] = later;
    later = static_cast<std::uint32_t>(i + 1);
  }
}

void OptValue::save_state(util::StateWriter&, const IndexedMinHeap&,
                          const ObjectTable&) const {
  throw std::logic_error("policy 'OPT' does not support checkpointing");
}

void OptValue::restore_state(util::StateReader&, const IndexedMinHeap&,
                             const ObjectTable&) {
  throw std::logic_error("policy 'OPT' does not support checkpointing");
}

LruKValue::LruKValue(std::size_t history_limit)
    : history_limit_(history_limit) {
  if (history_limit == 0) {
    throw std::invalid_argument("LruKPolicy: history_limit must be > 0");
  }
}

void LruKValue::on_remove(std::uint32_t slot) {
  const Resident& departed = resident_[slot];
  history_[departed.id] = departed.last_access;
  history_fifo_.emplace_back(departed.id, departed.last_access);
  while (history_.size() > history_limit_ && !history_fifo_.empty()) {
    const auto& [id, stamp] = history_fifo_.front();
    const auto it = history_.find(id);
    if (it != history_.end() && it->second == stamp) history_.erase(it);
    history_fifo_.pop_front();
  }
}

void LruKValue::clear() {
  resident_.clear();
  history_.clear();
  history_fifo_.clear();
}

template <class Value>
void GreedyDualPolicy<Value>::save_state(util::StateWriter& w,
                                         const ObjectTable& objects) const {
  save_heap(w, heap_, objects);
  if constexpr (Value::kAges) w.put_double(inflation_);
  value_.save_state(w, heap_, objects);
}

template <class Value>
void GreedyDualPolicy<Value>::restore_state(util::StateReader& r,
                                            const ObjectTable& objects) {
  restore_heap(r, heap_, objects);
  if constexpr (Value::kAges) inflation_ = r.take_double();
  value_.restore_state(r, heap_, objects);
}

// One instantiation per scheme, so each value function's hooks are
// inlined into its policy's heap updates.
template class GreedyDualPolicy<LfuDaValue>;
template class GreedyDualPolicy<GdsValue>;
template class GreedyDualPolicy<GdsfValue>;
template class GreedyDualPolicy<GdStarValue>;
template class GreedyDualPolicy<GdStarPerClassValue>;
template class GreedyDualPolicy<LfuValue>;
template class GreedyDualPolicy<SizeValue>;
template class GreedyDualPolicy<OptValue>;
template class GreedyDualPolicy<LruKValue>;

}  // namespace webcache::cache
