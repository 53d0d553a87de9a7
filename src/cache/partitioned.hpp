// Class-partitioned cache — an extension the paper's conclusion motivates.
//
// The paper shows each replacement scheme trades the document classes off
// differently (GD*(1) starves multi media to win image/HTML hit rate, LRU
// does the opposite). A static partitioning makes the trade explicit:
// capacity is split into per-class partitions, each running its own
// replacement policy, so e.g. multi media gets a guaranteed byte budget
// while the image partition runs a frequency-based scheme.
//
// Shares may be chosen manually, or derived from a workload profile's
// request mix / byte mix (the "adaptive" configurations in the extension
// benchmark).
#pragma once

#include <array>
#include <memory>
#include <string>

#include "cache/cache.hpp"
#include "cache/factory.hpp"

namespace webcache::cache {

struct PartitionedCacheConfig {
  std::uint64_t capacity_bytes = 0;
  /// Capacity share per document class; must be > 0 where traffic is
  /// expected and sum to ~1 (validated).
  std::array<double, trace::kDocumentClassCount> shares{};
  /// Replacement policy per class (the same spec may be repeated).
  std::array<PolicySpec, trace::kDocumentClassCount> policies{};

  /// Equal policy in all partitions, shares proportional to the given
  /// weights (normalized).
  static PartitionedCacheConfig uniform_policy(
      std::uint64_t capacity_bytes, const PolicySpec& policy,
      const std::array<double, trace::kDocumentClassCount>& weights);
};

class PartitionedCache final : public CacheFrontend {
 public:
  explicit PartitionedCache(const PartitionedCacheConfig& config);

  Cache::AccessOutcome access(ObjectId id, std::uint64_t size,
                              trace::DocumentClass doc_class,
                              bool force_miss) override;
  /// Forwards the reservation to every partition, so each per-class cache
  /// switches to its flat-array representation. The first call is only
  /// legal while all partitions are empty; later calls may extend the
  /// universe, never shrink it (std::logic_error otherwise). Afterwards any
  /// access with an id outside [0, universe) is rejected with
  /// std::invalid_argument — mixing dense and sparse ids in one partitioned
  /// cache would silently corrupt the flat indices.
  void reserve_dense_ids(std::uint64_t universe) override;
  /// Resident in any partition (documents keep their class, so this is a
  /// scan only in the degenerate cross-class case).
  bool contains(ObjectId id) const override;
  Occupancy occupancy() const override;
  std::uint64_t eviction_count() const override;
  std::uint64_t capacity_bytes() const override { return capacity_bytes_; }
  std::string description() const override;
  /// Installs the listener on every partition, so the instrumentation layer
  /// sees evictions from all classes in one stream.
  void set_removal_listener(RemovalListener* listener) override;
  /// Aging and beta stay unset — each partition runs its own policy
  /// instance; probe the per-class state via partition(c).policy_probe().
  PolicyProbe policy_probe() const override { return {}; }

  const Cache& partition(trace::DocumentClass c) const {
    return *partitions_[static_cast<std::size_t>(c)];
  }

  /// Checkpointing: every partition in class order.
  void save_state(util::StateWriter& w) const override;
  void restore_state(util::StateReader& r) override;

 private:
  std::uint64_t capacity_bytes_;
  /// 0 = sparse mode; otherwise the exclusive id bound set by
  /// reserve_dense_ids.
  std::uint64_t dense_universe_ = 0;
  std::array<std::unique_ptr<Cache>, trace::kDocumentClassCount> partitions_;
};

}  // namespace webcache::cache
