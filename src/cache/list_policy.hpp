// The recency-list schemes: LRU (paper, Section 3), LRU-THOLD, FIFO, the
// lazy-promotion variants PROB-LRU, DELAY-LRU and BATCH-LRU, and CLOCK.
//
// "LRU is based on the assumption that a recently referenced document will
//  be referenced again in near future. Therefore, on replacement LRU removes
//  the document from cache that has not been referenced for the longest
//  period of time."
//
// Every resident object sits on one slot-keyed LruIndexList: an insert
// pushes it at the front, the victim comes off the back, and an
// invalidation or modification (on_erase) unlinks it at once, so the list
// holds exactly the resident objects. The schemes differ only in what a hit
// does, which a Promotion type supplies:
//
//   LRU, LRU-THOLD  AlwaysPromote   move to the front on every hit
//   FIFO            NeverPromote    never: the list is the insertion order
//   PROB-LRU        ProbPromotion   with probability p (one draw per hit)
//   DELAY-LRU       DelayPromotion  at most once per k requests per object
//   BATCH-LRU       BatchPromotion  queue hits, move them every N hits
//   CLOCK,          SecondChance    at eviction: a hit arms a counter, and
//   DELAY-CLOCK                     the evict hook moves armed objects
//                                   from the back to the front
//
// FIFO is not one of the paper's four schemes but a member of the
// six-policy comparison in Arlitt, Friedrich & Jin (Performance Evaluation
// 39, 2000) that the paper builds on. LRU-THOLD (Abrams, Standridge,
// Abdulla, Williams & Fox, "Caching proxies: limitations and potentials",
// WWW 1995) is LRU with an admission limit: the owning Cache never stores a
// larger document. The lazy variants keep LRU's eviction order but promote
// less often or in batches; the FIFO-family lazy-promotion studies (see
// PAPERS.md / SNIPPETS.md: the libCacheSim-based artifact) show they retain
// most of LRU's hit ratio while removing the per-hit list splice. The
// same studies describe CLOCK as FIFO-Reinsertion: a FIFO queue whose
// eviction step reinserts referenced objects, which is what the CLOCK rules
// do with the list.
//
// Determinism: PROB-LRU draws from a seeded util::Rng on every hit, so the
// draw stream depends only on the hit sequence; DELAY-LRU keys its window
// off the container's request clock (CacheObject::last_access); BATCH-LRU
// flushes at exact hit counts; CLOCK's walk depends only on the counters.
// None depends on id numbering or slot assignment.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace webcache::cache {

/// The hooks of a promotion rule that keeps no state beside the list. A
/// rule supplies `on_hit(order, obj)` and `name()` and overrides what it
/// needs: on_insert, on_evict (may reorder the list before its back is
/// popped as the victim), on_remove (the slot left the list as a victim or
/// by on_erase), clear, and the state a checkpoint carries after the list.
struct PromotionHooks {
  void on_insert(const CacheObject&) {}
  void on_evict(LruIndexList&) {}
  void on_remove(std::uint32_t /*slot*/) {}
  void clear() {}
  void save_state(util::StateWriter&, const LruIndexList&,
                  const ObjectTable&) const {}
  void restore_state(util::StateReader&, const LruIndexList&,
                     const ObjectTable&) {}
};

/// A ListPolicy built with this never admits an object larger than `bytes`
/// (> 0) and is named "<rule>-THOLD(<bytes>)": LRU-THOLD.
struct AdmissionLimit {
  std::uint64_t bytes = 0;
};

template <class Promotion>
class ListPolicy final : public ReplacementPolicy {
 public:
  /// `args` construct the promotion rule; nothing is refused admission.
  template <class... Args>
  explicit ListPolicy(Args&&... args)
      : rule_(std::forward<Args>(args)...), name_(rule_.name()) {}
  explicit ListPolicy(AdmissionLimit limit, Promotion rule = {})
      : rule_(std::move(rule)),
        admission_limit_(limit.bytes),
        name_(rule_.name() + "-THOLD(" + std::to_string(limit.bytes) + ")") {
    if (limit.bytes == 0) {
      throw std::invalid_argument("ListPolicy: admission limit must be > 0");
    }
  }

  void on_insert(const CacheObject& obj) override {
    order_.push_front(obj.slot);
    rule_.on_insert(obj);
  }
  void on_hit(const CacheObject& obj) override { rule_.on_hit(order_, obj); }
  std::uint32_t evict(std::uint64_t /*incoming_size*/) override {
    rule_.on_evict(order_);
    const std::uint32_t victim = order_.pop_back();
    rule_.on_remove(victim);
    return victim;
  }
  void on_erase(const CacheObject& obj) override {
    order_.erase(obj.slot);
    rule_.on_remove(obj.slot);
  }
  std::string_view name() const override { return name_; }
  std::uint64_t admission_limit() const override { return admission_limit_; }
  void clear() override {
    order_.clear();
    rule_.clear();
  }

  const Promotion& rule() const { return rule_; }

  /// The resident ids from MRU to LRU, then the rule's state.
  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  LruIndexList order_;  // front = newest insert or promotion, back = victim
  Promotion rule_;
  std::uint64_t admission_limit_ = 0;
  std::string name_;
};

/// LRU: every hit moves the object to the front.
struct AlwaysPromote : PromotionHooks {
  void on_hit(LruIndexList& order, const CacheObject& obj) {
    order.move_to_front(obj.slot);
  }
  std::string name() const { return "LRU"; }
};

/// FIFO: hits never reorder, so the victim is the oldest insert.
struct NeverPromote : PromotionHooks {
  void on_hit(LruIndexList&, const CacheObject&) {}
  std::string name() const { return "FIFO"; }
};

/// PROB-LRU: a hit moves the object to the front with probability p
/// (p = 1 is plain LRU, p -> 0 approaches FIFO).
class ProbPromotion : public PromotionHooks {
 public:
  static constexpr double kDefaultP = 0.5;
  static constexpr std::uint64_t kDefaultSeed = 1;

  explicit ProbPromotion(double p = kDefaultP,
                         std::uint64_t seed = kDefaultSeed)
      : p_(p), seed_(seed), rng_(seed) {
    if (!(p > 0.0) || p > 1.0) {
      throw std::invalid_argument(
          "PROB-LRU: promotion probability must be in (0, 1]");
    }
  }

  void on_hit(LruIndexList& order, const CacheObject& obj) {
    // One draw per hit, unconditionally: the draw stream then depends only
    // on the hit sequence, never on the object's current list position.
    if (rng_.chance(p_)) order.move_to_front(obj.slot);
  }
  /// A reset run must reproduce the original draw sequence.
  void clear() { rng_ = util::Rng(seed_); }
  std::string name() const {
    char p[32];
    std::snprintf(p, sizeof(p), "%g", p_);
    return std::string("PROB-LRU:p=") + p;
  }

  double promote_probability() const { return p_; }

  /// The draw stream's position.
  void save_state(util::StateWriter& w, const LruIndexList& order,
                  const ObjectTable& objects) const;
  void restore_state(util::StateReader& r, const LruIndexList& order,
                     const ObjectTable& objects);

 private:
  double p_;
  std::uint64_t seed_;
  util::Rng rng_;
};

/// DELAY-LRU: a hit promotes only when the object has not been promoted
/// within the last k requests (k = 1 is plain LRU; the insert counts as a
/// promotion).
class DelayPromotion : public PromotionHooks {
 public:
  static constexpr std::uint64_t kDefaultK = 16;

  explicit DelayPromotion(std::uint64_t k = kDefaultK) : k_(k) {
    if (k == 0) {
      throw std::invalid_argument("DELAY-LRU: promotion interval must be >= 1");
    }
  }

  void on_insert(const CacheObject& obj) {
    // The window opens at the insert clock (CacheObject::last_access is
    // the container clock here).
    slot_entry(stamps_, obj.slot) = obj.last_access;
  }
  void on_hit(LruIndexList& order, const CacheObject& obj) {
    std::uint64_t& stamp = stamps_[obj.slot];
    if (obj.last_access - stamp >= k_) {
      order.move_to_front(obj.slot);
      stamp = obj.last_access;
    }
  }
  void clear() { stamps_.clear(); }
  std::string name() const { return "DELAY-LRU:k=" + std::to_string(k_); }

  std::uint64_t promote_interval() const { return k_; }

  /// Each resident's last promotion, in list order.
  void save_state(util::StateWriter& w, const LruIndexList& order,
                  const ObjectTable& objects) const;
  void restore_state(util::StateReader& r, const LruIndexList& order,
                     const ObjectTable& objects);

 private:
  std::uint64_t k_;
  // Per slot: request-clock index of the last promotion.
  std::vector<std::uint64_t> stamps_;
};

/// BATCH-LRU: hits only queue the object's slot; every `batch` queued hits
/// the queue moves to the front in arrival order (the most recent hit ends
/// up first) and empties. A departing slot leaves the queue too, so the
/// next object to take the slot never inherits a stale promotion.
class BatchPromotion : public PromotionHooks {
 public:
  static constexpr std::uint64_t kDefaultBatch = 64;

  explicit BatchPromotion(std::uint64_t batch = kDefaultBatch)
      : batch_(batch) {
    if (batch == 0) {
      throw std::invalid_argument("BATCH-LRU: batch size must be >= 1");
    }
    pending_.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(batch, 1 << 20)));
  }

  void on_hit(LruIndexList& order, const CacheObject& obj) {
    pending_.push_back(obj.slot);
    if (pending_.size() < batch_) return;
    // A repeated slot just moves again; every queued slot is resident.
    for (const std::uint32_t slot : pending_) order.move_to_front(slot);
    pending_.clear();
  }
  void on_remove(std::uint32_t slot) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), slot),
                   pending_.end());
  }
  void clear() { pending_.clear(); }
  std::string name() const {
    return "BATCH-LRU:batch=" + std::to_string(batch_);
  }

  std::uint64_t batch_size() const { return batch_; }
  std::size_t pending_promotions() const { return pending_.size(); }

  /// The queued ids in arrival order.
  void save_state(util::StateWriter& w, const LruIndexList& order,
                  const ObjectTable& objects) const;
  void restore_state(util::StateReader& r, const LruIndexList& order,
                     const ObjectTable& objects);

 private:
  std::uint64_t batch_;
  std::vector<std::uint32_t> pending_;  // queued hits awaiting the flush
};

/// CLOCK with a reference counter capped at k (Corbató's multi-bit CLOCK).
/// An insert enters unarmed and a hit raises the counter up to k; nothing
/// moves on a hit. At eviction the hand at the back of the list strips one
/// chance from each armed object and moves it to the front, until the back
/// object is unarmed: that is the victim, so a one-timer goes on the
/// first pass unless a hit arms it first.
class SecondChance : public PromotionHooks {
 public:
  void on_insert(const CacheObject& obj) {
    slot_entry(counters_, obj.slot) = 0;
  }
  void on_hit(LruIndexList&, const CacheObject& obj) {
    std::uint32_t& c = counters_[obj.slot];
    if (c < k_) ++c;
  }
  void on_evict(LruIndexList& order) {
    // Counters only fall along the walk, so it ends within k revolutions.
    for (std::uint32_t hand = order.back(); counters_[hand] != 0;
         hand = order.back()) {
      --counters_[hand];
      order.move_to_front(hand);
    }
  }
  void clear() { counters_.clear(); }

  std::uint32_t counter_max() const { return k_; }

  /// Each resident's counter, in list order.
  void save_state(util::StateWriter& w, const LruIndexList& order,
                  const ObjectTable& objects) const;
  void restore_state(util::StateReader& r, const LruIndexList& order,
                     const ObjectTable& objects);

 protected:
  explicit SecondChance(std::uint32_t k) : k_(k) {
    if (k == 0) {
      throw std::invalid_argument("DELAY-CLOCK: counter max must be >= 1");
    }
  }

 private:
  std::uint32_t k_;
  std::vector<std::uint32_t> counters_;  // by slot: chances left
};

/// CLOCK: one reference bit (k = 1).
struct ClockPromotion : SecondChance {
  ClockPromotion() : SecondChance(1) {}
  std::string name() const { return "CLOCK"; }
};

/// DELAY-CLOCK: k chances (k = 1 decides like CLOCK).
struct DelayClockPromotion : SecondChance {
  static constexpr std::uint32_t kDefaultK = 2;

  explicit DelayClockPromotion(std::uint32_t k = kDefaultK)
      : SecondChance(k) {}
  std::string name() const {
    return "DELAY-CLOCK:k=" + std::to_string(counter_max());
  }
};

using LruPolicy = ListPolicy<AlwaysPromote>;
/// Build with AdmissionLimit{bytes}.
using LruThresholdPolicy = ListPolicy<AlwaysPromote>;
using FifoPolicy = ListPolicy<NeverPromote>;
using ProbLruPolicy = ListPolicy<ProbPromotion>;
using DelayLruPolicy = ListPolicy<DelayPromotion>;
using BatchPromotionPolicy = ListPolicy<BatchPromotion>;
using ClockPolicy = ListPolicy<ClockPromotion>;
using DelayClockPolicy = ListPolicy<DelayClockPromotion>;

extern template class ListPolicy<AlwaysPromote>;
extern template class ListPolicy<NeverPromote>;
extern template class ListPolicy<ProbPromotion>;
extern template class ListPolicy<DelayPromotion>;
extern template class ListPolicy<BatchPromotion>;
extern template class ListPolicy<ClockPromotion>;
extern template class ListPolicy<DelayClockPromotion>;

}  // namespace webcache::cache
