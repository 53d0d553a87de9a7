// GreedyDual (Cao & Irani, USITS 1997; paper, Section 3) and the schemes
// that differ from it only in the value they give a document.
//
// Every resident document p carries H(p) = L + value(p) in one indexed
// min-heap. An insert or a hit sets H(p) from the *current* inflation L,
// so documents not referenced since their last H assignment decay relative
// to fresh ones. Eviction pops the minimum H and L rises to it. L replaces
// the paper's "subtract H_min from every H" step with an equivalent
// O(log n) scheme (identical eviction order). A modification or
// invalidation (on_erase) removes the entry and leaves L alone: GreedyDual
// ages only on replacement.
//
//   LFU-DA  f(p)                                the cache age L is LFU's aging
//   GDS     c(p) / s(p)                         GDS(1), GDS(packet), ...
//   GDSF    f(p) * c(p) / s(p)                  Squid's GDSF
//   GD*     (f(p) * c(p) / s(p))^(1/beta)       one online (or fixed) beta
//   GD*C    (f(p) * c(p) / s(p))^(1/beta_cls)   one beta per document class
//   LFU     f(p)                                no aging
//   SIZE    -s(p)                               no aging: largest first
//   OPT     -(clock of the next reference)      no aging: clairvoyant
//
// f(p) is the in-cache reference count, c(p) the cost model's retrieval
// cost and s(p) the size, a size-0 document (e.g. a 304 body) counting as
// one byte in the cost-based values so they stay finite. A Value type
// supplies value(p) as `of(obj)`, its name, whether it ages, and the hooks
// of ValueHooks it needs: a hit hook that feeds an estimator before the
// heap update, the beta the probe reports, and the state a checkpoint
// carries after the heap and L. A value that does not age (kAges false)
// is the classic baseline its aging sibling improves on: L stays 0, the
// heap holds value(p) itself, and neither the checkpoint nor the probe
// carries an L. Ties (equal H) break FIFO throughout.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/beta_estimator.hpp"
#include "cache/cost_model.hpp"
#include "cache/indexed_heap.hpp"
#include "cache/policy.hpp"

namespace webcache::trace {
struct DenseTrace;
}  // namespace webcache::trace

namespace webcache::cache {

template <class Value>
class GreedyDualPolicy final : public ReplacementPolicy {
 public:
  template <class... Args>
  explicit GreedyDualPolicy(Args&&... args)
      : value_(std::forward<Args>(args)...) {}

  void on_insert(const CacheObject& obj) override {
    heap_.push(obj.slot, priority(obj));
  }
  void on_hit(const CacheObject& obj) override {
    value_.on_hit(obj);
    heap_.update(obj.slot, priority(obj));
  }
  /// Pops the minimum; for an aging value, L rises to its priority.
  std::uint32_t evict(std::uint64_t /*incoming_size*/) override {
    const auto victim = heap_.pop();
    if constexpr (Value::kAges) inflation_ = victim.priority;
    return victim.key;
  }
  void on_erase(const CacheObject& obj) override { heap_.erase(obj.slot); }
  std::string_view name() const override { return value_.name(); }
  void clear() override {
    heap_.clear();
    value_.clear();
    inflation_ = 0.0;
  }

  /// The inflation L (LFU-DA's cache age): 0 at the start, then the
  /// priority of the last victim; always 0 for a value that does not age.
  double inflation() const { return inflation_; }
  /// The value function's estimate: GD*'s beta(), GD*C's beta(cls).
  template <class... Class>
  double beta(Class... cls) const {
    return value_.beta(cls...);
  }

  PolicyProbe probe() const override {
    if constexpr (Value::kAges) return {inflation_, value_.probe_beta()};
    return {std::nullopt, value_.probe_beta()};
  }

  /// The heap, then L (for an aging value), then the value function's
  /// state.
  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  // H(p). A non-aging value's own double goes in unchanged: SIZE gives a
  // size-0 document -0.0, which 0.0 + -0.0 would turn into +0.0 in the
  // checkpoint bytes.
  double priority(const CacheObject& obj) const {
    if constexpr (Value::kAges) return inflation_ + value_.of(obj);
    return value_.of(obj);
  }

  IndexedMinHeap heap_;
  Value value_;
  double inflation_ = 0.0;
};

/// The hooks of a value function with no state of its own, and one that
/// ages.
struct ValueHooks {
  static constexpr bool kAges = true;
  void on_hit(const CacheObject&) {}
  std::optional<double> probe_beta() const { return std::nullopt; }
  void clear() {}
  void save_state(util::StateWriter&) const {}
  void restore_state(util::StateReader&) {}
};

/// LFU with Dynamic Aging (Arlitt/Cherkasova, as in Squid): "LFU-DA keeps a
/// cache age [L], which is set to the [priority] of the last evicted
/// document. When putting a new document into cache or referencing an old
/// one, the cache age is added to the document's reference count."
struct LfuDaValue : ValueHooks {
  double of(const CacheObject& obj) const {
    return static_cast<double>(obj.reference_count);
  }
  std::string_view name() const { return "LFU-DA"; }
};

/// The cost and the name of the cost-based schemes: GDS(1), GD*(packet), ...
class CostValue : public ValueHooks {
 public:
  std::string_view name() const { return name_; }

 protected:
  CostValue(std::string_view scheme, CostModelKind cost_model);

  double size_of(const CacheObject& obj) const {
    return std::max<double>(1.0, static_cast<double>(obj.size));
  }
  /// f(p) * c(p) / s(p).
  double utility(const CacheObject& obj) const {
    return static_cast<double>(obj.reference_count) *
           cost_model_->cost(obj.size) / size_of(obj);
  }

  std::unique_ptr<CostModel> cost_model_;
  std::string name_;
};

/// GreedyDual-Size: c(p) / s(p). With c(p) = 1 this is the paper's GDS(1);
/// with the packet cost model it is GDS(packet).
struct GdsValue : CostValue {
  explicit GdsValue(CostModelKind cost_model) : CostValue("GDS", cost_model) {}
  double of(const CacheObject& obj) const {
    return cost_model_->cost(obj.size) / size_of(obj);
  }
};

/// GreedyDual-Size with Frequency (Arlitt, Cherkasova et al.). Not one of
/// the paper's four schemes, but the midpoint between GDS (no frequency)
/// and GD* (frequency raised to 1/beta): GD* with beta fixed at 1 behaves
/// identically.
struct GdsfValue : CostValue {
  explicit GdsfValue(CostModelKind cost_model)
      : CostValue("GDSF", cost_model) {}
  double of(const CacheObject& obj) const { return utility(obj); }
};

/// GreedyDual* (Jin & Bestavros, Computer Communications 2000): "The
/// parameter beta characterizes the temporal correlation between successive
/// references ... The novel feature of GD* is that f(p) and beta can be
/// calculated in an on-line fashion, which makes the algorithm adaptive."
///
/// beta < 1 (weak temporal correlation) amplifies the utility spread,
/// making the policy more frequency-driven; beta -> 1 recovers GDSF;
/// beta > 1 (strong correlation) compresses utilities so recency (via L)
/// dominates: the popularity-vs-correlation trade the paper studies per
/// document type.
class GdStarValue : public CostValue {
 public:
  /// With fixed_beta set, the online estimator is disabled and the given
  /// exponent is used throughout (the ablation configuration; the name
  /// gains " [beta=...]").
  explicit GdStarValue(CostModelKind cost_model,
                       std::optional<double> fixed_beta = std::nullopt,
                       BetaEstimator::Options estimator_options = {});

  double of(const CacheObject& obj) const {
    return std::pow(utility(obj),
                    fixed_beta_ ? fixed_exponent_ : estimator_.exponent());
  }
  /// Feeds the estimator the inter-reference gap in requests (the
  /// container updates last/previous access before the hit hook).
  void on_hit(const CacheObject& obj) {
    if (!fixed_beta_ && obj.last_access > obj.previous_access) {
      estimator_.observe_gap(obj.last_access - obj.previous_access);
    }
  }
  /// The exponent currently in effect.
  double beta() const { return fixed_beta_ ? *fixed_beta_ : estimator_.beta(); }
  std::optional<double> probe_beta() const { return beta(); }
  void clear() { estimator_.clear(); }
  /// The estimator is written even when beta is fixed.
  void save_state(util::StateWriter& w) const { estimator_.save_state(w); }
  void restore_state(util::StateReader& r) { estimator_.restore_state(r); }

 private:
  std::optional<double> fixed_beta_;
  double fixed_exponent_;  // 1 / *fixed_beta_, when set
  BetaEstimator estimator_;
};

/// GD* with one beta estimator per document class: the fix the paper's
/// Section 4.4 suggests. "The slopes beta of the distribution of temporal
/// correlation for HTML, multi media, and application documents are much
/// bigger than the overall slope ..., which is dominated by the slope of
/// image documents. This causes additional errors in replacement decisions
/// performed by GD*(packet)." One stream-wide estimate is essentially the
/// image beta and mis-ages every other class; here each document's utility
/// takes its own class's 1/beta. bench/ext_per_class_beta measures the fix.
class GdStarPerClassValue : public CostValue {
 public:
  explicit GdStarPerClassValue(CostModelKind cost_model,
                               BetaEstimator::Options estimator_options = {});

  double of(const CacheObject& obj) const {
    return std::pow(utility(obj), estimator(obj.doc_class).exponent());
  }
  void on_hit(const CacheObject& obj) {
    if (obj.last_access > obj.previous_access) {
      estimators_[static_cast<std::size_t>(obj.doc_class)].observe_gap(
          obj.last_access - obj.previous_access);
    }
  }
  /// Current estimate for one class (initial value until enough gaps).
  /// There is no single beta, so the probe reports none.
  double beta(trace::DocumentClass c) const { return estimator(c).beta(); }
  void clear() {
    for (BetaEstimator& e : estimators_) e.clear();
  }
  void save_state(util::StateWriter& w) const {
    for (const BetaEstimator& e : estimators_) e.save_state(w);
  }
  void restore_state(util::StateReader& r) {
    for (BetaEstimator& e : estimators_) e.restore_state(r);
  }

 private:
  const BetaEstimator& estimator(trace::DocumentClass c) const {
    return estimators_[static_cast<std::size_t>(c)];
  }

  std::array<BetaEstimator, trace::kDocumentClassCount> estimators_;
};

/// Plain Least Frequently Used: the in-cache reference count, no aging.
/// Kept as the baseline that motivates LFU-DA: without aging, documents
/// that were popular long ago pollute the cache ("cache pollution",
/// Section 3).
struct LfuValue : ValueHooks {
  static constexpr bool kAges = false;
  double of(const CacheObject& obj) const {
    return static_cast<double>(obj.reference_count);
  }
  std::string_view name() const { return "LFU"; }
};

/// SIZE (Williams et al., 1996): evict the largest resident document. The
/// classic size-aware baseline that GDS generalizes; the negated size makes
/// the min-heap a max-heap over sizes.
struct SizeValue : ValueHooks {
  static constexpr bool kAges = false;
  double of(const CacheObject& obj) const {
    return -static_cast<double>(obj.size);
  }
  std::string_view name() const { return "SIZE"; }
};

/// Clairvoyant replacement bound (Belady's MIN generalized to variable-size
/// objects by the standard furthest-next-reference greedy).
///
/// Not part of the paper's scheme set: an *upper bound* harness feature.
/// The value is built from the full future request sequence, and on
/// replacement the resident object whose next reference is furthest in the
/// future goes first (never-referenced-again objects before everything,
/// largest first among those). For unit-size objects this is Belady's
/// optimal MIN; for variable sizes the offline optimum is NP-hard and this
/// greedy is the customary reference bound (e.g. in Cao & Irani's
/// evaluation).
///
/// The container's logical clock must advance exactly once per trace
/// request (which the simulator guarantees), because next-reference lookups
/// are keyed by request index: the oracle is one 32-bit entry per request,
/// the clock of the next request for the same document. The oracle is the
/// future of one trace, which a checkpoint cannot carry, so the checkpoint
/// hooks throw.
class OptValue : public ValueHooks {
 public:
  static constexpr bool kAges = false;

  /// Builds the next-reference oracle from the trace's records in one
  /// backward pass over a flat array of document_count() entries (the ids
  /// are already dense, so nothing is interned). Request i corresponds to
  /// container clock i + 1. Throws std::length_error for 2^32 or more
  /// requests.
  explicit OptValue(const trace::DenseTrace& trace);

  /// -(next reference clock), so a further next reference is evicted
  /// earlier; a dead object sorts below every live one, biggest first.
  double of(const CacheObject& obj) const {
    // obj.last_access is the clock of the request being served.
    const std::uint64_t now = obj.last_access;
    const std::uint64_t next =
        now == 0 || now > next_.size() ? 0 : next_[now - 1];
    if (next == 0) {
      // The base is far beyond any clock value yet small enough that adding
      // the size is not absorbed by floating-point rounding.
      constexpr double kDeadBase = 1e15;
      return -(kDeadBase + static_cast<double>(obj.size));
    }
    return -static_cast<double>(next);
  }
  std::string_view name() const { return "OPT"; }
  [[noreturn]] void save_state(util::StateWriter&) const;
  [[noreturn]] void restore_state(util::StateReader&);

 private:
  /// next_[i]: the clock of the next request for request i's document; 0
  /// when there is none.
  std::vector<std::uint32_t> next_;
};

using LfuDaPolicy = GreedyDualPolicy<LfuDaValue>;
using GdsPolicy = GreedyDualPolicy<GdsValue>;
using GdsfPolicy = GreedyDualPolicy<GdsfValue>;
using GdStarPolicy = GreedyDualPolicy<GdStarValue>;
using GdStarPerClassPolicy = GreedyDualPolicy<GdStarPerClassValue>;
using LfuPolicy = GreedyDualPolicy<LfuValue>;
using SizePolicy = GreedyDualPolicy<SizeValue>;
using OptPolicy = GreedyDualPolicy<OptValue>;

extern template class GreedyDualPolicy<LfuDaValue>;
extern template class GreedyDualPolicy<GdsValue>;
extern template class GreedyDualPolicy<GdsfValue>;
extern template class GreedyDualPolicy<GdStarValue>;
extern template class GreedyDualPolicy<GdStarPerClassValue>;
extern template class GreedyDualPolicy<LfuValue>;
extern template class GreedyDualPolicy<SizeValue>;
extern template class GreedyDualPolicy<OptValue>;

}  // namespace webcache::cache
