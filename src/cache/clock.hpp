// CLOCK / Delay-CLOCK: second-chance FIFO with per-object reference
// counters — the classic lazy-promotion scheme (the hit path touches one
// counter; the recency structure is only maintained at eviction time).
//
// Implementation: an array-backed ring over the object table's slots
// (cache::LruIndexList — one node per slot, 32-bit links) ordered by
// insertion, with the clock hand at the cold end, and a counter per slot.
// A hit arms the object's reference counter (capped at k); the hand
// walks from the cold end, decrementing armed counters and recycling those
// objects to the young end (the second chance), and evicts the first
// object found with counter zero. CLOCK is the k=1 special case (a single
// reference bit); Delay-CLOCK generalizes to k chances, which approximates
// LRU more closely at slightly higher scan cost (Corbató's multi-bit CLOCK;
// the FIFO-family lazy-promotion studies rediscover it as "QuickDemotion
// resistant" CLOCK variants).
//
// Determinism: no randomness; the ring evolution depends only on the
// insert/hit/evict sequence, never on id numbering or slot assignment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

/// Shared second-chance machinery; concrete policies fix k and the name.
class SecondChancePolicy : public ReplacementPolicy {
 public:
  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override { ring_.erase(obj.slot); }
  void clear() override;


  std::uint32_t counter_max() const { return counter_max_; }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 protected:
  explicit SecondChancePolicy(std::uint32_t counter_max);

 private:
  std::uint32_t counter_max_;  // k: chances granted by consecutive hits
  LruIndexList ring_;          // front = youngest, back = clock hand
  std::vector<std::uint32_t> counters_;  // by slot

};

/// CLOCK: one reference bit (k = 1).
class ClockPolicy final : public SecondChancePolicy {
 public:
  ClockPolicy() : SecondChancePolicy(1) {}
  std::string_view name() const override { return "CLOCK"; }
};

/// Delay-CLOCK: reference counter capped at k (k >= 1).
class DelayClockPolicy final : public SecondChancePolicy {
 public:
  static constexpr std::uint32_t kDefaultK = 2;

  explicit DelayClockPolicy(std::uint32_t k = kDefaultK)
      : SecondChancePolicy(k),
        name_("DELAY-CLOCK:k=" + std::to_string(k)) {}
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
};

}  // namespace webcache::cache
