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
//   LRU-2   clock of the penultimate access     no aging: retained history
//
// f(p) is the in-cache reference count, c(p) the cost model's retrieval
// cost and s(p) the size, a size-0 document (e.g. a 304 body) counting as
// one byte in the cost-based values so they stay finite. A Value type
// supplies value(p) as `of(obj)`, its name, whether it ages, and the hooks
// of ValueHooks it needs: a hit hook that feeds an estimator before the
// heap update, an insert hook after the push, a remove hook for a popped
// victim or an erased entry, the beta the probe reports, and the state a
// checkpoint carries after the heap and L. A value that does not age
// (kAges false) is the classic baseline its aging sibling improves on: L
// stays 0, the heap holds value(p) itself, and neither the checkpoint nor
// the probe carries an L. Ties (equal H) break FIFO throughout.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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
    value_.on_insert(obj);
  }
  void on_hit(const CacheObject& obj) override {
    value_.on_hit(obj);
    heap_.update(obj.slot, priority(obj));
  }
  /// Pops the minimum; for an aging value, L rises to its priority.
  std::uint32_t evict(std::uint64_t /*incoming_size*/) override {
    const auto victim = heap_.pop();
    value_.on_remove(victim.key);
    if constexpr (Value::kAges) inflation_ = victim.priority;
    return victim.key;
  }
  void on_erase(const CacheObject& obj) override {
    heap_.erase(obj.slot);
    value_.on_remove(obj.slot);
  }
  std::string_view name() const override { return value_.name(); }
  void clear() override {
    heap_.clear();
    value_.clear();
    inflation_ = 0.0;
  }

  /// The inflation L (LFU-DA's cache age): 0 at the start, then the
  /// priority of the last victim; always 0 for a value that does not age.
  double inflation() const { return inflation_; }
  /// The value function, for its parameters.
  const Value& value() const { return value_; }
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
  void on_insert(const CacheObject&) {}
  void on_hit(const CacheObject&) {}
  void on_remove(std::uint32_t /*slot*/) {}
  std::optional<double> probe_beta() const { return std::nullopt; }
  void clear() {}
  void save_state(util::StateWriter&, const IndexedMinHeap&,
                  const ObjectTable&) const {}
  void restore_state(util::StateReader&, const IndexedMinHeap&,
                     const ObjectTable&) {}
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
  void save_state(util::StateWriter& w, const IndexedMinHeap&,
                  const ObjectTable&) const {
    estimator_.save_state(w);
  }
  void restore_state(util::StateReader& r, const IndexedMinHeap&,
                     const ObjectTable&) {
    estimator_.restore_state(r);
  }

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
  void save_state(util::StateWriter& w, const IndexedMinHeap&,
                  const ObjectTable&) const {
    for (const BetaEstimator& e : estimators_) e.save_state(w);
  }
  void restore_state(util::StateReader& r, const IndexedMinHeap&,
                     const ObjectTable&) {
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
  [[noreturn]] void save_state(util::StateWriter&, const IndexedMinHeap&,
                               const ObjectTable&) const;
  [[noreturn]] void restore_state(util::StateReader&, const IndexedMinHeap&,
                                  const ObjectTable&);

 private:
  /// next_[i]: the clock of the next request for request i's document; 0
  /// when there is none.
  std::vector<std::uint32_t> next_;
};

/// LRU-K for K = 2 (O'Neil, O'Neil & Weikum, SIGMOD 1993): evict the
/// document whose second-most-recent access is oldest (the largest backward
/// 2-distance). A document with one known access has an infinite backward
/// 2-distance and goes first, in a sub-zero band ordered by that access,
/// which on web workloads with ~50 % one-timer requests acts as a scan
/// filter.
///
/// Faithful to the paper, the last access of a departed document is
/// *retained* (the Retained Information Period): re-inserting a document
/// whose previous access is still on record gives it a finite backward
/// 2-distance at once. Without this, a scan can evict a working set before
/// it earns its second reference and LRU-K degenerates. The history keeps
/// the latest `history_limit` departures (FIFO), so its memory follows the
/// limit. It is the one id-keyed structure of the policies, because it
/// outlives the documents' slots.
class LruKValue : public ValueHooks {
 public:
  static constexpr bool kAges = false;

  /// history_limit (> 0) bounds the number of departed documents whose
  /// last access is retained.
  explicit LruKValue(std::size_t history_limit = 16384);

  /// The penultimate access: a hit's previous access. An insert (the only
  /// access with reference count 1) takes the retained access, or the
  /// one-timer band without one. Clocks stay far below 2^52, so the band
  /// is collision-free in double.
  double of(const CacheObject& obj) const {
    if (obj.reference_count > 1) {
      return static_cast<double>(obj.previous_access);
    }
    const auto it = history_.find(obj.id);
    if (it != history_.end()) return static_cast<double>(it->second);
    return -1.0e15 + static_cast<double>(obj.last_access);
  }
  /// A retained access that of() just took leaves the history.
  void on_insert(const CacheObject& obj) {
    history_.erase(obj.id);
    slot_entry(resident_, obj.slot) = Resident{obj.id, obj.last_access};
  }
  void on_hit(const CacheObject& obj) {
    resident_[obj.slot].last_access = obj.last_access;
  }
  /// A victim or an erased document: its last access is retained.
  void on_remove(std::uint32_t slot);
  std::string_view name() const { return "LRU-2"; }
  void clear();

  std::size_t history_limit() const { return history_limit_; }
  std::size_t history_size() const { return history_.size(); }

  /// The residents' last accesses and the history, each sorted by id, then
  /// the history's FIFO.
  void save_state(util::StateWriter& w, const IndexedMinHeap& heap,
                  const ObjectTable& objects) const;
  void restore_state(util::StateReader& r, const IndexedMinHeap& heap,
                     const ObjectTable& objects);

 private:
  std::size_t history_limit_;

  // Per resident slot: the document and its last access, which on_remove
  // retains (a victim's slot is all the heap hands back).
  struct Resident {
    ObjectId id;
    std::uint64_t last_access;
  };
  std::vector<Resident> resident_;

  // The last access of recently departed documents, by id, and the
  // departures in order; an entry whose document departed again since is
  // stale and skipped when pruned.
  std::unordered_map<ObjectId, std::uint64_t> history_;
  std::deque<std::pair<ObjectId, std::uint64_t>> history_fifo_;
};

using LfuDaPolicy = GreedyDualPolicy<LfuDaValue>;
using GdsPolicy = GreedyDualPolicy<GdsValue>;
using GdsfPolicy = GreedyDualPolicy<GdsfValue>;
using GdStarPolicy = GreedyDualPolicy<GdStarValue>;
using GdStarPerClassPolicy = GreedyDualPolicy<GdStarPerClassValue>;
using LfuPolicy = GreedyDualPolicy<LfuValue>;
using SizePolicy = GreedyDualPolicy<SizeValue>;
using OptPolicy = GreedyDualPolicy<OptValue>;
using LruKPolicy = GreedyDualPolicy<LruKValue>;

extern template class GreedyDualPolicy<LfuDaValue>;
extern template class GreedyDualPolicy<GdsValue>;
extern template class GreedyDualPolicy<GdsfValue>;
extern template class GreedyDualPolicy<GdStarValue>;
extern template class GreedyDualPolicy<GdStarPerClassValue>;
extern template class GreedyDualPolicy<LfuValue>;
extern template class GreedyDualPolicy<SizeValue>;
extern template class GreedyDualPolicy<OptValue>;
extern template class GreedyDualPolicy<LruKValue>;

}  // namespace webcache::cache
