// The cache container: capacity accounting, object metadata, per-class
// occupancy, and the eviction loop. Replacement order is delegated to a
// ReplacementPolicy chosen at run time; its hooks dispatch virtually.
// CacheFrontend is the surface the replay loops drive; Cache is its
// single-box implementation, composites (cache/partitioned.hpp) the others.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/object_table.hpp"
#include "cache/policy.hpp"
#include "cache/types.hpp"
#include "util/state_io.hpp"

namespace webcache::cache {

/// Per-class and total occupancy snapshot (drives the paper's Figure 1).
struct Occupancy {
  std::array<std::uint64_t, trace::kDocumentClassCount> objects{};
  std::array<std::uint64_t, trace::kDocumentClassCount> bytes{};
  std::uint64_t total_objects = 0;
  std::uint64_t total_bytes = 0;

  double object_fraction(trace::DocumentClass c) const;
  double byte_fraction(trace::DocumentClass c) const;

  /// Adds another cache's occupancy (composites: partitions, mesh nodes).
  void add(const Occupancy& other);
};

/// Why an object left the cache: displaced by the replacement policy, or
/// dropped explicitly (erase(), document modification, replacement by a new
/// version). The instrumentation layer splits its counters on this.
enum class RemovalCause : std::uint8_t {
  kEviction,
  kInvalidation,
};

/// Notification interface for objects leaving the cache. A plain virtual
/// interface rather than std::function: the eviction loop fires this per
/// removed object, and a null-pointer check plus a direct virtual call is
/// cheaper than type-erased dispatch there.
class RemovalListener {
 public:
  virtual ~RemovalListener() = default;
  /// Invoked for every object leaving the cache — by eviction, erase(), or
  /// replacement — just before its metadata is destroyed.
  virtual void on_removal(const CacheObject& obj, RemovalCause cause) = 0;
};

/// Outcome classification of one access(). Namespace-scope so frontends
/// share it; Cache::AccessKind / Cache::AccessOutcome stay available as
/// member aliases for existing call sites.
enum class AccessKind : std::uint8_t {
  kHit,     // document resident and valid
  kMiss,    // not resident (or forced invalid); now inserted
  kBypass,  // larger than the whole cache; never stored
};

struct AccessOutcome {
  AccessKind kind = AccessKind::kMiss;
  std::uint64_t evictions = 0;  // evictions performed to make room
  /// Whether any copy (valid or stale) was resident when the request
  /// arrived — the pre-access contains() answer, reported from the same
  /// table probe the access itself performs. The simulator's document-
  /// modification accounting consumes this; it saves the separate
  /// contains() lookup the replay loop used to issue per request.
  bool was_resident = false;
};

/// The minimal surface the simulator needs from a cache, so a composite
/// organization (a class-partitioned cache) is driven by the same trace
/// loop as a single Cache, which implements it directly.
class CacheFrontend {
 public:
  virtual ~CacheFrontend() = default;

  virtual AccessOutcome access(ObjectId id, std::uint64_t size,
                               trace::DocumentClass doc_class,
                               bool force_miss) = 0;
  /// Dense-id fast path: every ObjectId subsequently passed to this
  /// frontend lies in [0, universe) — true for traces run through
  /// trace::densify(). Composites forward the reservation to every
  /// underlying cache so each switches its object table's id index to a
  /// flat array; results are bit-identical either way. The first call
  /// is only legal while the frontend is empty; later calls may extend the
  /// universe, as a stream does when it interns a new document, but never
  /// shrink it (implementations throw std::logic_error).
  virtual void reserve_dense_ids(std::uint64_t universe) = 0;
  virtual bool contains(ObjectId id) const = 0;
  virtual Occupancy occupancy() const = 0;
  virtual std::uint64_t eviction_count() const = 0;
  virtual std::uint64_t capacity_bytes() const = 0;
  /// Human-readable identity for reports (policy name or composite label).
  virtual std::string description() const = 0;

  /// Installs (nullptr: removes) a removal listener on every underlying
  /// cache — the instrumentation layer's eviction feed. The listener is not
  /// owned.
  virtual void set_removal_listener(RemovalListener* listener) = 0;

  /// Observability snapshot of the underlying replacement state, sampled
  /// per metrics window. A composite reports nothing: a partitioned cache
  /// has one aging term per partition, not one overall.
  virtual PolicyProbe policy_probe() const = 0;

  // ---- fault-injection seams (sim/faults.hpp) ----
  //
  // The fault-aware replay loops model a frontend as a set of independent
  // fault domains: a schedule's edge-crash/recover events address domains,
  // a request whose domain is down is LOST (a single box has no failover
  // path), and a crash drops the domain's contents cold. A plain Cache is
  // one domain; a class-partitioned cache is one domain per document
  // class.

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
  virtual void crash_domain(std::uint32_t domain) = 0;

  // ---- checkpointing (sim/checkpoint.hpp) ----
  //
  // Serializes every underlying cache (accounting, resident objects,
  // policy state). restore_state is only legal on an empty frontend built
  // from the identical configuration — the checkpoint fingerprint
  // enforces that before this is called.

  virtual void save_state(util::StateWriter& w) const = 0;
  virtual void restore_state(util::StateReader& r) = 0;
};

class Cache final : public CacheFrontend {
 public:
  // Compatibility aliases: call sites spell these Cache::AccessKind etc.
  using AccessKind = cache::AccessKind;
  using AccessOutcome = cache::AccessOutcome;

  /// capacity_bytes == 0 disables storage entirely (everything bypasses).
  /// The policy's admission limit (ReplacementPolicy::admission_limit;
  /// LRU-Threshold's size threshold) becomes the cache's.
  Cache(std::uint64_t capacity_bytes,
        std::unique_ptr<ReplacementPolicy> policy)
      : capacity_bytes_(capacity_bytes), policy_(std::move(policy)) {
    if (!policy_) throw std::invalid_argument("Cache: null policy");
    admission_limit_ = policy_->admission_limit();
  }

  /// Dense-id fast path: declares that every ObjectId passed to this cache
  /// lies in [0, universe) — true for traces run through trace::densify().
  /// The object table's id -> slot index becomes a flat vector (the policy
  /// is keyed by slots and unaffected). Results are bit-identical to the
  /// hash-indexed mode. Later calls may extend the universe under live
  /// objects (a stream interning ids as it reads them); a first call on a
  /// non-empty cache, or one that would shrink the universe, throws
  /// std::logic_error.
  void reserve_dense_ids(std::uint64_t universe) override {
    objects_.reserve_dense(universe);
  }

  /// Admission control: objects larger than this are never stored
  /// (kBypass), as in the LRU-Threshold scheme. 0 = unlimited.
  std::uint64_t admission_limit() const { return admission_limit_; }

  /// The one-call protocol used by the simulator: advances the request
  /// clock, then either records a hit or inserts the document (evicting as
  /// needed). With force_miss, a resident copy is invalidated first and the
  /// access counts as a miss (the paper's document-modification rule).
  AccessOutcome access(ObjectId id, std::uint64_t size,
                       trace::DocumentClass doc_class,
                       bool force_miss = false) override {
    ++clock_;
    AccessOutcome outcome;

    CacheObject* found = objects_.find(id);
    outcome.was_resident = found != nullptr;
    if (found != nullptr && !force_miss) {
      CacheObject& obj = *found;
      obj.previous_access = obj.last_access;
      obj.last_access = clock_;
      ++obj.reference_count;
      policy_->on_hit(obj);
      outcome.kind = AccessKind::kHit;
      return outcome;
    }

    if (found != nullptr) {
      // force_miss: the origin's copy changed; drop the stale version.
      remove_object(found->slot, /*is_eviction=*/false);
    }

    if (!admitted(size)) {
      outcome.kind = AccessKind::kBypass;
      return outcome;
    }

    outcome.evictions = evict_until_fits(size);
    insert(id, size, doc_class);
    outcome.kind = AccessKind::kMiss;
    return outcome;
  }

  // ---- granular operations (used by the hierarchy simulator) ----

  /// Advances the request clock and, when the object is resident, records a
  /// hit on it (reference count, access indices, policy). Returns whether
  /// it was resident. Unlike access(), a miss inserts nothing — the caller
  /// fetches the body and calls put().
  bool touch(ObjectId id) {
    ++clock_;
    CacheObject* found = objects_.find(id);
    if (found == nullptr) return false;
    CacheObject& obj = *found;
    obj.previous_access = obj.last_access;
    obj.last_access = clock_;
    ++obj.reference_count;
    policy_->on_hit(obj);
    return true;
  }

  /// Inserts or refreshes an object *without* advancing the clock (it
  /// belongs to the request already clocked by the preceding touch()).
  /// A resident copy is replaced. Returns false when the object exceeds
  /// the whole cache capacity (bypass).
  bool put(ObjectId id, std::uint64_t size, trace::DocumentClass doc_class) {
    erase(id);
    if (!admitted(size)) return false;
    evict_until_fits(size);
    insert(id, size, doc_class);
    return true;
  }

  bool contains(ObjectId id) const override { return objects_.contains(id); }
  /// Metadata of a resident object, or nullptr.
  const CacheObject* find(ObjectId id) const { return objects_.find(id); }
  /// Removes a resident object (invalidation); no-op when absent.
  void erase(ObjectId id) {
    if (const CacheObject* found = objects_.find(id)) {
      remove_object(found->slot, /*is_eviction=*/false);
    }
  }

  // ---- accounting ----

  std::uint64_t capacity_bytes() const override { return capacity_bytes_; }
  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t object_count() const { return objects_.size(); }
  std::uint64_t eviction_count() const override { return evictions_; }
  std::uint64_t insertion_count() const { return insertions_; }
  /// Logical clock: number of access() calls so far.
  std::uint64_t clock() const { return clock_; }

  Occupancy occupancy() const override {
    Occupancy occ;
    occ.objects = class_objects_;
    occ.bytes = class_bytes_;
    occ.total_objects = objects_.size();
    occ.total_bytes = used_bytes_;
    return occ;
  }

  const ReplacementPolicy& policy() const { return *policy_; }
  /// The policy's name, e.g. "GD*(1)" (checkpoint fingerprints carry it).
  std::string description() const override {
    return std::string(policy_->name());
  }

  /// Observability snapshot of the policy's internal state (aging term,
  /// beta estimate); sampled per metrics window.
  PolicyProbe policy_probe() const override { return policy_->probe(); }

  /// Installs (or, with nullptr, removes) the removal notification hook.
  /// The listener is not owned and must outlive the cache or be detached.
  void set_removal_listener(RemovalListener* listener) override {
    removal_listener_ = listener;
  }

  /// Empties the cache and resets the policy and all counters.
  void reset() {
    objects_.clear();
    policy_->clear();
    used_bytes_ = 0;
    clock_ = 0;
    evictions_ = 0;
    insertions_ = 0;
    class_objects_.fill(0);
    class_bytes_.fill(0);
  }

  /// Simulates a node failure (fault injection): every resident object is
  /// dropped and the replacement policy restarts cold, but the request clock
  /// and the cumulative eviction/insertion counters keep running — they
  /// describe the node's lifetime across restarts, and the fault metrics
  /// must not conflate crash losses with evictions. For the same reason the
  /// removal listener is NOT notified: the objects were lost with the
  /// process, not evicted or invalidated. Dense-id mode is preserved.
  void crash() {
    objects_.clear();
    policy_->clear();
    used_bytes_ = 0;
    class_objects_.fill(0);
    class_bytes_.fill(0);
  }
  /// A single box is one fault domain.
  void crash_domain(std::uint32_t domain) override {
    if (domain != 0) throw std::logic_error("Cache: only fault domain 0");
    crash();
  }

  /// Exhaustive consistency check (byte accounting vs object table); tests.
  bool check_invariants() const {
    std::uint64_t bytes = 0;
    std::array<std::uint64_t, trace::kDocumentClassCount> per_class_bytes{};
    std::array<std::uint64_t, trace::kDocumentClassCount> per_class_objects{};
    bool ids_consistent = true;
    objects_.for_each([&](const CacheObject& obj) {
      if (objects_.find(obj.id) != &obj) ids_consistent = false;
      bytes += obj.size;
      per_class_bytes[class_index(obj.doc_class)] += obj.size;
      per_class_objects[class_index(obj.doc_class)] += 1;
    });
    return ids_consistent && bytes == used_bytes_ &&
           bytes <= capacity_bytes_ && per_class_bytes == class_bytes_ &&
           per_class_objects == class_objects_;
  }

  // ---- checkpointing ----
  //
  // save_state serializes the container's accounting, the resident-object
  // metadata (sorted by id, so the bytes depend on neither the index mode
  // nor the slot assignment), and the policy's semantic state, in ids.
  // restore_state is only legal on an empty cache constructed with the
  // identical capacity, policy spec and dense-id reservation;
  // sim::checkpoint validates that through the run fingerprint before
  // calling it. The restored objects take fresh slots, through which the
  // policy's restore maps its saved ids.

  void save_state(util::StateWriter& w) const override {
    w.put_u64(admission_limit_);
    w.put_u64(used_bytes_);
    w.put_u64(clock_);
    w.put_u64(evictions_);
    w.put_u64(insertions_);
    for (const std::uint64_t n : class_objects_) w.put_u64(n);
    for (const std::uint64_t n : class_bytes_) w.put_u64(n);

    std::vector<CacheObject> resident;
    resident.reserve(static_cast<std::size_t>(objects_.size()));
    objects_.for_each([&](const CacheObject& obj) { resident.push_back(obj); });
    std::sort(resident.begin(), resident.end(),
              [](const CacheObject& a, const CacheObject& b) {
                return a.id < b.id;
              });
    w.put_u64(resident.size());
    for (const CacheObject& obj : resident) {
      w.put_u64(obj.id);
      w.put_u64(obj.size);
      w.put_u8(static_cast<std::uint8_t>(obj.doc_class));
      w.put_u64(obj.reference_count);
      w.put_u64(obj.last_access);
      w.put_u64(obj.previous_access);
      w.put_u64(obj.insert_index);
    }

    policy_->save_state(w, objects_);
  }

  void restore_state(util::StateReader& r) override {
    if (!objects_.empty()) {
      throw std::logic_error("Cache: restore_state on non-empty cache");
    }
    admission_limit_ = r.take_u64();
    used_bytes_ = r.take_u64();
    clock_ = r.take_u64();
    evictions_ = r.take_u64();
    insertions_ = r.take_u64();
    for (std::uint64_t& n : class_objects_) n = r.take_u64();
    for (std::uint64_t& n : class_bytes_) n = r.take_u64();

    const std::uint64_t count = r.take_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      CacheObject obj;
      obj.id = r.take_id();
      obj.size = r.take_u64();
      const std::uint8_t cls = r.take_u8();
      if (cls >= trace::kDocumentClassCount) {
        r.fail("document class byte out of range");
      }
      obj.doc_class = static_cast<trace::DocumentClass>(cls);
      obj.reference_count = r.take_u64();
      obj.last_access = r.take_u64();
      obj.previous_access = r.take_u64();
      obj.insert_index = r.take_u64();
      objects_.insert(obj);
    }

    policy_->restore_state(r, objects_);
  }

 private:
  static std::size_t class_index(trace::DocumentClass c) {
    return static_cast<std::size_t>(c);
  }

  void insert(ObjectId id, std::uint64_t size,
              trace::DocumentClass doc_class) {
    CacheObject obj;
    obj.id = id;
    obj.size = size;
    obj.doc_class = doc_class;
    obj.reference_count = 1;
    obj.last_access = clock_;
    obj.previous_access = clock_;
    obj.insert_index = clock_;

    CacheObject& stored = objects_.insert(obj);
    used_bytes_ += size;
    class_bytes_[class_index(doc_class)] += size;
    class_objects_[class_index(doc_class)] += 1;
    ++insertions_;
    policy_->on_insert(stored);
  }

  std::uint64_t evict_until_fits(std::uint64_t incoming_size) {
    std::uint64_t evicted = 0;
    while (used_bytes_ + incoming_size > capacity_bytes_) {
      // The policy has already dropped the victim; only the table and the
      // accounting still hold it.
      remove_object(policy_->evict(incoming_size), /*is_eviction=*/true);
      ++evicted;
    }
    return evicted;
  }

  void remove_object(std::uint32_t slot, bool is_eviction) {
    const CacheObject& obj = objects_.at(slot);
    used_bytes_ -= obj.size;
    class_bytes_[class_index(obj.doc_class)] -= obj.size;
    class_objects_[class_index(obj.doc_class)] -= 1;
    if (is_eviction) {
      ++evictions_;
    } else {
      policy_->on_erase(obj);
    }
    if (removal_listener_ != nullptr) {
      removal_listener_->on_removal(obj, is_eviction
                                             ? RemovalCause::kEviction
                                             : RemovalCause::kInvalidation);
    }
    objects_.erase(slot);
  }

  bool admitted(std::uint64_t size) const {
    return size <= capacity_bytes_ &&
           (admission_limit_ == 0 || size <= admission_limit_);
  }

  std::uint64_t capacity_bytes_;
  std::uint64_t admission_limit_ = 0;
  std::unique_ptr<ReplacementPolicy> policy_;
  RemovalListener* removal_listener_ = nullptr;
  ObjectTable objects_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
  std::array<std::uint64_t, trace::kDocumentClassCount> class_objects_{};
  std::array<std::uint64_t, trace::kDocumentClassCount> class_bytes_{};
};

}  // namespace webcache::cache
