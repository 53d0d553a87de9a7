// Replacement-policy interface.
//
// The Cache container owns object storage and accounting; a policy only
// maintains the eviction order. The container guarantees the call protocol:
//   - on_insert(obj)   once per resident object, before any on_hit
//   - on_hit(obj)      obj is resident; obj.reference_count already bumped
//   - choose_victim(incoming_size)
//                      cache non-empty; returns a resident object id and
//                      must not remove it. incoming_size is the size of the
//                      object being admitted (0 when unknown); most
//                      policies ignore it, size-class policies like LRU-MIN
//                      use it to pick their victim pool
//   - on_evict(id)/on_erase(id)  removal bookkeeping (eviction vs explicit
//                      invalidation; most policies treat them identically)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cache/types.hpp"

namespace webcache::util {
class StateWriter;
class StateReader;
}  // namespace webcache::util

namespace webcache::cache {

/// Observability snapshot of a policy's internal state, sampled by the
/// instrumentation layer at window boundaries (never on the hot path).
/// Fields are optional because not every scheme has the notion: only the
/// GreedyDual family and LFU-DA carry an aging term, only GD* estimates
/// beta.
struct PolicyProbe {
  /// Entries in the policy's index structure (heap or recency list).
  std::uint64_t heap_entries = 0;
  /// Current aging/inflation term L (GDS/GDSF/GD*: the inflation value;
  /// LFU-DA: the cache age).
  std::optional<double> aging;
  /// GD*'s online estimate of the temporal-correlation exponent beta.
  std::optional<double> beta;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Hint that every ObjectId this policy will ever see lies in
  /// [0, universe) — true after trace::densify(). Array-backed policies
  /// switch their key -> position indices from hash maps to flat vectors;
  /// the eviction order is unaffected. The first call is only legal before
  /// any on_insert (or right after clear()); later calls may extend the
  /// universe under live entries, never shrink it. Default: ignored.
  virtual void reserve_ids(std::uint64_t /*universe*/) {}

  virtual void on_insert(const CacheObject& obj) = 0;
  virtual void on_hit(const CacheObject& obj) = 0;
  virtual ObjectId choose_victim(std::uint64_t incoming_size) = 0;
  /// Convenience for callers without an incoming object.
  ObjectId choose_victim() { return choose_victim(0); }
  virtual void on_evict(ObjectId id) = 0;
  /// Removal not caused by replacement (invalidation / modification).
  /// Default: same bookkeeping as eviction.
  virtual void on_erase(ObjectId id) { on_evict(id); }

  virtual std::string_view name() const = 0;

  /// Observability hook: a snapshot of the policy's aging/estimator state,
  /// sampled once per metrics window by obs::RecordingSink. Cold path only;
  /// the default reports nothing.
  virtual PolicyProbe probe() const { return {}; }

  /// Drops all state (used when resetting a simulation).
  virtual void clear() = 0;

  // ---- checkpointing ----
  //
  // save_state serializes the policy's *semantic* state: everything a
  // future eviction decision can depend on, nothing it can't. A policy
  // restored through restore_state must make bit-identical decisions to
  // the original from that point on — heap array layouts and free-list
  // orders are not semantic and deliberately not preserved.
  //
  // restore_state is only ever called on a freshly constructed policy of
  // the identical spec (and with reserve_ids already applied when the run
  // is dense); sim::checkpoint validates that before restoring. Policies
  // that carry out-of-band state (e.g. the clairvoyant OPT bound) keep
  // the throwing defaults.

  virtual void save_state(util::StateWriter&) const {
    throw std::logic_error("policy '" + std::string(name()) +
                           "' does not support checkpointing");
  }
  virtual void restore_state(util::StateReader&) {
    throw std::logic_error("policy '" + std::string(name()) +
                           "' does not support checkpointing");
  }
};

}  // namespace webcache::cache
