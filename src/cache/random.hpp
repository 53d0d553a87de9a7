// RANDOM replacement: evict a uniformly random resident object.
//
// The cheapest possible baseline — no bookkeeping on hits at all (the
// archetypal lazy-promotion scheme) and O(1) victim selection. Under the
// independent-reference model its hit ratio admits a Che-style analytic
// approximation (Gallo, Kauffmann, Muscariello, Simonian & Tanguy,
// "Performance evaluation of the random replacement policy for networks of
// caches", arXiv:1202.4880): an object requested with probability q_i is
// resident with probability q_i T / (1 + q_i T), where the characteristic
// time T solves sum_i q_i T / (1 + q_i T) = C objects. The analytic
// cross-check test (tests/sim/random_analytic_test.cpp) pins the simulator
// against that formula.
//
// Determinism: every draw comes from one util::Rng constructed from the
// seed in the PolicySpec, and victims are chosen by position in a dense
// resident vector maintained with swap-remove. The vector's evolution
// depends only on the insert/erase sequence — never on the id numbering or
// the slot assignment — so every replay of a trace draws the same victims.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace webcache::cache {

class RandomPolicy final : public ReplacementPolicy {
 public:
  static constexpr std::uint64_t kDefaultSeed = 1;

  explicit RandomPolicy(std::uint64_t seed = kDefaultSeed);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& /*obj*/) override {}  // lazy: no promotion
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return "RANDOM"; }
  void clear() override;


  std::uint64_t seed() const { return seed_; }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  void add(std::uint32_t slot);
  void remove(std::uint32_t slot);

  std::uint64_t seed_;
  util::Rng rng_;
  std::vector<std::uint32_t> slots_;     // resident slots, swap-remove order
  std::vector<std::uint32_t> position_;  // slot -> index in slots_
};

}  // namespace webcache::cache
