// CacheFrontend: the minimal surface the simulator needs from a cache, so
// composite organizations (class-partitioned caches, hierarchies) can be
// driven by the same trace loop as a single Cache.
#pragma once

#include <string>

#include "cache/cache.hpp"

namespace webcache::cache {

class CacheFrontend {
 public:
  virtual ~CacheFrontend() = default;

  virtual Cache::AccessOutcome access(ObjectId id, std::uint64_t size,
                                      trace::DocumentClass doc_class,
                                      bool force_miss) = 0;
  /// Dense-id fast path hint: every ObjectId subsequently passed to this
  /// frontend lies in [0, universe) — true for traces run through
  /// trace::densify(). Composites forward the reservation to every
  /// underlying cache so each switches its object table's id index to a
  /// flat array; results are bit-identical either way. The first call
  /// is only legal while the frontend is empty; later calls may extend the
  /// universe, as a stream does when it interns a new document, but never
  /// shrink it (implementations throw std::logic_error). The default
  /// ignores the hint: a frontend without an id index simply stays
  /// sparse.
  virtual void reserve_dense_ids(std::uint64_t /*universe*/) {}
  virtual bool contains(ObjectId id) const = 0;
  virtual Occupancy occupancy() const = 0;
  virtual std::uint64_t eviction_count() const = 0;
  virtual std::uint64_t capacity_bytes() const = 0;
  /// Human-readable identity for reports (policy name or composite label).
  virtual std::string description() const = 0;

  /// Installs (nullptr: removes) a removal listener on every underlying
  /// cache — the instrumentation layer's eviction feed. The listener is not
  /// owned. The default ignores the hook: a frontend without caches behind
  /// it has nothing to report.
  virtual void set_removal_listener(RemovalListener* /*listener*/) {}

  /// Observability snapshot of the underlying replacement state, sampled
  /// per metrics window. Composites aggregate what aggregates (heap
  /// entries) and drop what doesn't (a partitioned cache has one aging term
  /// per partition, not one overall). Default: nothing to report.
  virtual PolicyProbe policy_probe() const { return {}; }

  // ---- fault-injection seams (sim/faults.hpp) ----
  //
  // The fault-aware replay loops model a frontend as a set of independent
  // fault domains: a schedule's edge-crash/recover events address domains,
  // a request whose domain is down is LOST (a single box has no failover
  // path), and a crash drops the domain's contents cold. A plain frontend
  // is one domain; a class-partitioned cache is one domain per document
  // class (matching the PR-4 partitioned fault semantics).

  /// Number of independent fault domains (schedule node indices must be
  /// smaller). Default: the whole frontend is one domain.
  virtual std::uint32_t fault_domains() const { return 1; }

  /// Which domain serves requests of this document class.
  virtual std::uint32_t fault_domain_of(trace::DocumentClass /*cls*/) const {
    return 0;
  }

  /// Drops the domain's contents and restarts its replacement state cold
  /// (Cache::crash semantics: lifetime counters keep running, the removal
  /// listener is not notified — the objects were lost, not evicted).
  /// Frontends without a crash seam throw std::logic_error; they cannot be
  /// driven by a fault schedule.
  virtual void crash_domain(std::uint32_t /*domain*/) {
    throw std::logic_error(
        "CacheFrontend: this frontend has no fault-injection crash seam");
  }

  // ---- checkpointing (sim/checkpoint.hpp) ----
  //
  // Serializes every underlying cache (accounting, resident objects,
  // policy state). restore_state is only legal on an empty frontend built
  // from the identical configuration — the checkpoint fingerprint
  // enforces that before this is called. Frontends without a snapshot
  // seam keep the throwing defaults and cannot be checkpointed.

  virtual void save_state(util::StateWriter& /*w*/) const {
    throw std::logic_error(
        "CacheFrontend: this frontend has no checkpoint seam");
  }
  virtual void restore_state(util::StateReader& /*r*/) {
    throw std::logic_error(
        "CacheFrontend: this frontend has no checkpoint seam");
  }
};

/// Adapts a plain Cache to the frontend interface.
class SingleCacheFrontend final : public CacheFrontend {
 public:
  SingleCacheFrontend(std::uint64_t capacity_bytes,
                      std::unique_ptr<ReplacementPolicy> policy,
                      std::uint64_t admission_limit_bytes = 0)
      : cache_(capacity_bytes, std::move(policy)) {
    if (admission_limit_bytes > 0) {
      cache_.set_admission_limit(admission_limit_bytes);
    }
  }

  Cache::AccessOutcome access(ObjectId id, std::uint64_t size,
                              trace::DocumentClass doc_class,
                              bool force_miss) override {
    return cache_.access(id, size, doc_class, force_miss);
  }
  void reserve_dense_ids(std::uint64_t universe) override {
    cache_.reserve_dense_ids(universe);
  }
  bool contains(ObjectId id) const override { return cache_.contains(id); }
  Occupancy occupancy() const override { return cache_.occupancy(); }
  std::uint64_t eviction_count() const override {
    return cache_.eviction_count();
  }
  std::uint64_t capacity_bytes() const override {
    return cache_.capacity_bytes();
  }
  std::string description() const override {
    return std::string(cache_.policy().name());
  }
  void set_removal_listener(RemovalListener* listener) override {
    cache_.set_removal_listener(listener);
  }
  PolicyProbe policy_probe() const override { return cache_.policy_probe(); }
  void crash_domain(std::uint32_t domain) override {
    if (domain != 0) {
      throw std::logic_error("SingleCacheFrontend: only fault domain 0");
    }
    cache_.crash();
  }
  void save_state(util::StateWriter& w) const override {
    cache_.save_state(w);
  }
  void restore_state(util::StateReader& r) override {
    cache_.restore_state(r);
  }

  Cache& cache() { return cache_; }

 private:
  Cache cache_;
};

}  // namespace webcache::cache
