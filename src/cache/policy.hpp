// Replacement-policy interface.
//
// The Cache container owns object storage and accounting; a policy only
// maintains the eviction order over the resident objects, keyed by each
// object's stable slot in the container's ObjectTable (CacheObject::slot).
// Slots are dense whatever the document ids are, so every policy keeps
// flat arrays sized by the most objects ever resident at once, and none
// keeps an id index of its residents (LRU-2's bounded history of departed
// documents is the one id-keyed map). The container guarantees the call
// protocol:
//   - on_insert(obj)   once per resident object, before any on_hit
//   - on_hit(obj)      obj is resident; obj.reference_count already bumped
//   - evict(incoming_size)
//                      cache non-empty; removes the victim from the
//                      policy's structures and returns its slot (the
//                      container then drops the object). incoming_size is
//                      the size of the object being admitted (0 when
//                      unknown); most policies ignore it, size-class
//                      policies like LRU-MIN use it to pick their victim
//                      pool. A GreedyDual value that ages (LFU-DA, GDS,
//                      GDSF, GD*, GD*C) ages here: L becomes the victim's
//                      priority. LFU, SIZE, OPT and LRU-2 never age
//   - on_erase(obj)    obj leaves without being a victim (invalidation,
//                      modification); no aging
// A slot freed by evict/on_erase may be handed to the next on_insert.
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

class ObjectTable;

/// Observability snapshot of a policy's internal state, sampled by the
/// instrumentation layer at window boundaries (never on the hot path).
/// Fields are optional because not every scheme has the notion: only the
/// GreedyDual values that age (greedy_dual.hpp, LFU-DA included) carry an
/// aging term, only GD* reports a beta. (Every policy indexes each resident
/// object exactly once, so the index size is the occupancy's object count.)
struct PolicyProbe {
  /// Current aging/inflation term L (GDS/GDSF/GD*/GD*C: the inflation
  /// value; LFU-DA: the cache age).
  std::optional<double> aging;
  /// GD*'s temporal-correlation exponent beta: its online estimate, or the
  /// fixed value.
  std::optional<double> beta;
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual void on_insert(const CacheObject& obj) = 0;
  virtual void on_hit(const CacheObject& obj) = 0;
  virtual std::uint32_t evict(std::uint64_t incoming_size) = 0;
  virtual void on_erase(const CacheObject& obj) = 0;

  virtual std::string_view name() const = 0;

  /// Admission control the policy brings with it: the owning Cache never
  /// stores an object larger than this (0 = unlimited). Read once, by the
  /// Cache constructor.
  virtual std::uint64_t admission_limit() const { return 0; }

  /// Observability hook: a snapshot of the policy's aging/estimator state,
  /// sampled once per metrics window by obs::RecordingSink. Cold path only;
  /// the default reports nothing.
  virtual PolicyProbe probe() const { return {}; }

  /// Drops all state (used when resetting a simulation).
  virtual void clear() = 0;

  // ---- checkpointing ----
  //
  // save_state serializes the policy's *semantic* state: everything a
  // future eviction decision can depend on, nothing it can't, with
  // document ids in place of slots (looked up in `objects`, the owning
  // cache's table). Slots are never written, and what is written (heap
  // arrays, list orders, RANDOM's positions) depends only on priorities,
  // tie-break sequences and recency, so the bytes do not depend on the
  // slot assignment. A policy restored through restore_state must make
  // bit-identical decisions to the original from that point on.
  //
  // restore_state is only ever called on a freshly constructed policy of
  // the identical spec, after the cache restored its resident objects into
  // `objects`: each saved id maps to the slot the table assigned it, and
  // an id that is not resident fails the reader. sim::checkpoint validates
  // the spec before restoring. A policy whose state cannot be written
  // keeps the throwing defaults; the clairvoyant OPT bound, whose oracle is
  // the future of one trace, throws the same error from its value's
  // checkpoint hooks (greedy_dual.hpp).

  virtual void save_state(util::StateWriter&, const ObjectTable&) const {
    throw std::logic_error("policy '" + std::string(name()) +
                           "' does not support checkpointing");
  }
  virtual void restore_state(util::StateReader&, const ObjectTable&) {
    throw std::logic_error("policy '" + std::string(name()) +
                           "' does not support checkpointing");
  }
};

}  // namespace webcache::cache
