#include "cache/partitioned.hpp"

#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/state_io.hpp"

namespace webcache::cache {

PartitionedCacheConfig PartitionedCacheConfig::uniform_policy(
    std::uint64_t capacity_bytes, const PolicySpec& policy,
    const std::array<double, trace::kDocumentClassCount>& weights) {
  PartitionedCacheConfig config;
  config.capacity_bytes = capacity_bytes;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    throw std::invalid_argument("PartitionedCacheConfig: zero weights");
  }
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    config.shares[c] = weights[c] / total;
    config.policies[c] = policy;
  }
  return config;
}

PartitionedCache::PartitionedCache(const PartitionedCacheConfig& config)
    : capacity_bytes_(config.capacity_bytes) {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("PartitionedCache: capacity must be > 0");
  }
  double share_sum = 0.0;
  for (const double share : config.shares) {
    if (share < 0.0) {
      throw std::invalid_argument("PartitionedCache: negative share");
    }
    share_sum += share;
  }
  if (std::abs(share_sum - 1.0) > 1e-6) {
    throw std::invalid_argument("PartitionedCache: shares must sum to 1");
  }
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    const auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(config.capacity_bytes) * config.shares[c]);
    partitions_[c] =
        std::make_unique<Cache>(bytes, make_policy(config.policies[c]));
  }
}

void PartitionedCache::reserve_dense_ids(std::uint64_t universe) {
  // Check every partition before switching any, so a rejected first
  // reservation leaves the whole cache sparse.
  for (const auto& partition : partitions_) {
    if (dense_universe_ == 0 && partition->object_count() != 0) {
      throw std::logic_error(
          "PartitionedCache: reserve_dense_ids on non-empty cache");
    }
  }
  for (const auto& partition : partitions_) {
    partition->reserve_dense_ids(universe);
  }
  dense_universe_ = universe;
}

Cache::AccessOutcome PartitionedCache::access(ObjectId id, std::uint64_t size,
                                              trace::DocumentClass doc_class,
                                              bool force_miss) {
  if (dense_universe_ != 0 && id >= dense_universe_) {
    throw std::invalid_argument(
        "PartitionedCache: id outside the reserved dense universe");
  }
  // was_resident is a whole-frontend property: a document that migrated
  // class sits in a *different* partition than the one this access routes
  // to, and the simulator's modification accounting saw it as resident back
  // when it issued a separate contains() call. Answer across all
  // partitions, then let the class's partition handle the access.
  const bool resident = contains(id);
  Cache::AccessOutcome outcome =
      partitions_[static_cast<std::size_t>(doc_class)]->access(
          id, size, doc_class, force_miss);
  outcome.was_resident = resident;
  return outcome;
}

bool PartitionedCache::contains(ObjectId id) const {
  for (const auto& partition : partitions_) {
    if (partition->contains(id)) return true;
  }
  return false;
}

Occupancy PartitionedCache::occupancy() const {
  Occupancy total;
  for (const auto& partition : partitions_) total.add(partition->occupancy());
  return total;
}

std::uint64_t PartitionedCache::eviction_count() const {
  std::uint64_t total = 0;
  for (const auto& partition : partitions_) {
    total += partition->eviction_count();
  }
  return total;
}

void PartitionedCache::set_removal_listener(RemovalListener* listener) {
  for (const auto& partition : partitions_) {
    partition->set_removal_listener(listener);
  }
}

std::string PartitionedCache::description() const {
  std::ostringstream os;
  os << "Partitioned[";
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    if (c > 0) os << ", ";
    os << trace::to_string(static_cast<trace::DocumentClass>(c)) << ":"
       << partitions_[c]->policy().name();
  }
  os << "]";
  return os.str();
}

void PartitionedCache::save_state(util::StateWriter& w) const {
  for (const auto& partition : partitions_) partition->save_state(w);
}

void PartitionedCache::restore_state(util::StateReader& r) {
  for (auto& partition : partitions_) partition->restore_state(r);
}

}  // namespace webcache::cache
