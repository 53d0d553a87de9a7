// Lazy-promotion LRU variants: keep LRU's eviction order but cheapen the
// hit path by promoting less often (Prob-LRU, Delay-LRU) or in batches
// (batch promotion). The FIFO-family lazy-promotion studies (see
// PAPERS.md / SNIPPETS.md: the libCacheSim-based artifact) show these
// retain most of LRU's hit ratio while removing the per-hit list splice.
//
// Determinism: Prob-LRU draws one Bernoulli per hit from a seeded
// util::Rng (position-independent, so every replay sees the same stream);
// Delay-LRU keys its promotion window off the container's request clock
// (CacheObject::last_access); batch promotion flushes at exact hit counts.
// None depends on id numbering or slot assignment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru_list.hpp"
#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace webcache::cache {

/// Prob-LRU: on a hit, move to the MRU end with probability p (p = 1 is
/// plain LRU, p -> 0 approaches FIFO). One seeded draw per hit.
class ProbLruPolicy final : public ReplacementPolicy {
 public:
  static constexpr double kDefaultP = 0.5;
  static constexpr std::uint64_t kDefaultSeed = 1;

  explicit ProbLruPolicy(double p = kDefaultP,
                         std::uint64_t seed = kDefaultSeed);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return name_; }
  void clear() override;

  PolicyProbe probe() const override {
    return {order_.size(), std::nullopt, std::nullopt};
  }

  double promote_probability() const { return p_; }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  double p_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::string name_;
  LruIndexList order_;  // front = most recently promoted
};

/// Delay-LRU: promote on a hit only when the object has not been promoted
/// within the last k requests (per object, measured on the container's
/// request clock). k = 0 would be plain LRU; we require k >= 1.
class DelayLruPolicy final : public ReplacementPolicy {
 public:
  static constexpr std::uint64_t kDefaultK = 16;

  explicit DelayLruPolicy(std::uint64_t k = kDefaultK);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return name_; }
  void clear() override;

  PolicyProbe probe() const override {
    return {order_.size(), std::nullopt, std::nullopt};
  }

  std::uint64_t promote_interval() const { return k_; }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  std::uint64_t k_;
  std::string name_;
  LruIndexList order_;
  // Per slot: request-clock index of the last promotion (insert counts).
  std::vector<std::uint64_t> stamps_;
};

/// Batch promotion: hits only enqueue the object's slot; every `batch`
/// queued hits the whole queue is promoted in arrival order (the most
/// recent hit ends up at the MRU end) and cleared. Removal purges any
/// queued entries for the departing slot so the next object to take it
/// can never inherit a stale promotion.
class BatchPromotionPolicy final : public ReplacementPolicy {
 public:
  static constexpr std::uint64_t kDefaultBatch = 64;

  explicit BatchPromotionPolicy(std::uint64_t batch = kDefaultBatch);

  void on_insert(const CacheObject& obj) override;
  void on_hit(const CacheObject& obj) override;
  std::uint32_t evict(std::uint64_t incoming_size) override;
  void on_erase(const CacheObject& obj) override;
  std::string_view name() const override { return name_; }
  void clear() override;

  PolicyProbe probe() const override {
    return {order_.size(), std::nullopt, std::nullopt};
  }

  std::uint64_t batch_size() const { return batch_; }
  std::size_t pending_promotions() const { return pending_.size(); }

  void save_state(util::StateWriter& w,
                  const ObjectTable& objects) const override;
  void restore_state(util::StateReader& r,
                     const ObjectTable& objects) override;

 private:
  void flush();
  void remove(std::uint32_t slot);

  std::uint64_t batch_;
  std::string name_;
  LruIndexList order_;
  std::vector<std::uint32_t> pending_;  // queued hits awaiting the flush
};

}  // namespace webcache::cache
