#include "sim/stack_sweep.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "sim/last_size.hpp"

namespace webcache::sim {

namespace {

using detail::SizeChange;
using detail::classify_size_change;

// Recency positions: the i-th request (1-based) owns slot M+1-i, so later
// requests sit at *smaller* slots and the prefix [1..x] is always the x
// most recent positions. Only a document's most recent access occupies its
// slot; older slots of the same document carry weight zero.
using Slot = std::uint32_t;

/// Fenwick tree over slots 1..n with signed 64-bit sums. One instance
/// carries the canonical byte weights (every live document's size as of its
/// most recent request), one carries live-document counts, and each
/// capacity lazily grows a third for its stored-size deltas (see below).
class Fenwick {
 public:
  explicit Fenwick(Slot n) : tree_(static_cast<std::size_t>(n) + 1, 0), n_(n) {}

  void add(Slot i, std::int64_t v) {
    for (; i <= n_; i += i & (~i + 1)) tree_[i] += v;
  }

  std::int64_t prefix(Slot i) const {
    std::int64_t sum = 0;
    for (; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }

  /// Internal node i covers the range (i - lowbit(i), i]; used by the
  /// joint bit-descend in find_boundary.
  std::int64_t node(Slot i) const { return tree_[i]; }

  Slot size() const { return n_; }

 private:
  std::vector<std::int64_t> tree_;
  Slot n_;
};

/// Largest x <= bound with bytes.prefix(x) + delta.prefix(x) <= budget,
/// plus that combined prefix sum. Every combined weight inside [1..bound]
/// is a resident document's stored size (>= 0) — stale deltas of evicted
/// documents always sit beyond the boundary — so the combined prefix is
/// monotone there and the classic bit-descend applies, extended to walk
/// both trees at once and to skip steps that would cross the bound.
struct Boundary {
  Slot pos = 0;
  std::int64_t bytes = 0;
};

Boundary find_boundary(const Fenwick& bytes, const Fenwick* delta, Slot bound,
                       std::int64_t budget) {
  Boundary out;
  if (bound == 0) return out;
  for (Slot step = std::bit_floor(bytes.size()); step > 0; step >>= 1) {
    const Slot next = out.pos + step;
    if (next > bound) continue;
    const std::int64_t candidate = out.bytes + bytes.node(next) +
                                   (delta != nullptr ? delta->node(next) : 0);
    if (candidate <= budget) {
      out.pos = next;
      out.bytes = candidate;
    }
  }
  return out;
}

/// Per-capacity simulation state. `boundary` is the recency slot of the
/// least recent resident: a document is resident at this capacity iff its
/// current slot is <= boundary (the stack inclusion property makes the
/// resident set a recency prefix). `used` mirrors Cache::used_bytes().
///
/// Stored sizes can diverge from the canonical (most recent request) size:
/// a hit never updates the resident copy, so an interrupted transfer leaves
/// the old size in caches where the document was resident while a smaller
/// cache — where it missed — stores the new size. Each capacity tracks its
/// own `stored - canonical` deltas in a lazy Fenwick (slot-indexed, summed
/// with the canonical tree during eviction searches) plus a map for O(1)
/// per-document removal on the next access.
struct CapacityState {
  std::uint64_t capacity = 0;
  Slot boundary = 0;
  std::uint64_t used = 0;
  std::unique_ptr<Fenwick> delta;
  std::unordered_map<trace::DocumentId, std::int64_t> diverged;
};

struct DocState {
  Slot slot = 0;
  std::uint64_t last_size = 0;
};

class DenseDocTable {
 public:
  explicit DenseDocTable(std::uint64_t universe)
      : docs_(static_cast<std::size_t>(universe), DocState{0, kUnseen}) {}
  DocState* get(trace::DocumentId document, bool& first_seen) {
    DocState& state = docs_[static_cast<std::size_t>(document)];
    first_seen = state.last_size == kUnseen;
    if (first_seen) state.last_size = 0;
    return &state;
  }

 private:
  // No real transfer size reaches 2^64 - 1 bytes, so the sentinel is safe.
  static constexpr std::uint64_t kUnseen =
      std::numeric_limits<std::uint64_t>::max();
  std::vector<DocState> docs_{};
};

std::vector<SimResult> run_stack(const trace::DenseTrace& dense,
                                 const std::vector<std::uint64_t>& capacities,
                                 const SimulatorOptions& options) {
  const trace::Trace& trace = dense.trace;
  const std::uint64_t total = trace.requests.size();
  if (total >= std::numeric_limits<Slot>::max() - 1) {
    throw std::invalid_argument(
        "stack_sweep: trace exceeds the 2^32 - 2 request slot limit");
  }
  const std::uint64_t largest = StackSweep::max_transfer_size(trace);
  for (const std::uint64_t capacity : capacities) {
    if (capacity < largest) {
      throw std::invalid_argument(
          "stack_sweep: capacity " + std::to_string(capacity) +
          " below the trace's largest transfer size " +
          std::to_string(largest) + " (such documents bypass and break the "
          "stack inclusion property)");
    }
  }

  const auto warmup = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(total) * options.warmup_fraction));

  std::vector<SimResult> results(capacities.size());
  std::vector<CapacityState> caps(capacities.size());
  for (std::size_t k = 0; k < capacities.size(); ++k) {
    results[k].policy_name = "LRU";
    results[k].capacity_bytes = capacities[k];
    results[k].warmup_requests = warmup;
    results[k].measured_requests = total - warmup;
    caps[k].capacity = capacities[k];
  }

  const Slot slots = static_cast<Slot>(total);
  DenseDocTable docs(dense.document_count());
  Fenwick bytes(slots);
  Fenwick counts(slots);

  std::uint64_t index = 0;
  for (const trace::Request& r : trace.requests) {
    ++index;
    const bool measured = index > warmup;
    const std::uint64_t size = r.transfer_size;
    const Slot ns = static_cast<Slot>(total - index + 1);
    const double fetch_latency =
        options.latency_setup_ms +
        static_cast<double>(size) / options.latency_bytes_per_ms;

    bool first_seen = false;
    DocState* doc = docs.get(r.document, first_seen);
    Slot ps = 0;
    std::uint64_t canonical_old = 0;
    SizeChange change;
    if (!first_seen) {
      ps = doc->slot;
      canonical_old = doc->last_size;
      change = classify_size_change(canonical_old, size, options);
      bytes.add(ps, -static_cast<std::int64_t>(canonical_old));
      counts.add(ps, -1);
    }

    for (std::size_t k = 0; k < caps.size(); ++k) {
      CapacityState& cap = caps[k];
      SimResult& res = results[k];

      // Clear this capacity's stale stored-size delta (if any) before the
      // residency decision; residency itself depends only on the slot.
      std::int64_t delta_old = 0;
      if (!first_seen && cap.delta != nullptr) {
        const auto it = cap.diverged.find(r.document);
        if (it != cap.diverged.end()) {
          delta_old = it->second;
          cap.diverged.erase(it);
          cap.delta->add(ps, -delta_old);
        }
      }

      const bool resident = !first_seen && ps <= cap.boundary;
      const bool hit = resident && !change.modified;

      if (measured) {
        HitCounters& cls =
            res.per_class[static_cast<std::size_t>(r.doc_class)];
        cls.requests += 1;
        cls.requested_bytes += size;
        res.overall.requests += 1;
        res.overall.requested_bytes += size;
        res.all_miss_latency_ms += fetch_latency;
        if (hit) {
          cls.hits += 1;
          cls.hit_bytes += size;
          res.overall.hits += 1;
          res.overall.hit_bytes += size;
        } else {
          res.miss_latency_ms += fetch_latency;
        }
        if (change.modified && resident) res.modification_misses += 1;
        if (change.interrupted) res.interrupted_transfers += 1;
      }

      if (hit) {
        // The resident copy keeps its stored size; only its slot moves to
        // the front. When the trace size changed (interrupted transfer),
        // record the divergence at the new slot.
        const std::int64_t stored_old =
            static_cast<std::int64_t>(canonical_old) + delta_old;
        const std::int64_t new_delta =
            stored_old - static_cast<std::int64_t>(size);
        if (new_delta != 0) {
          if (cap.delta == nullptr) cap.delta = std::make_unique<Fenwick>(slots);
          cap.delta->add(ns, new_delta);
          cap.diverged.emplace(r.document, new_delta);
        }
        // ns is the smallest slot so far, so boundary and used stay put.
        continue;
      }

      if (resident) {
        // Modification: the stale copy is invalidated before re-fetch.
        cap.used -= static_cast<std::uint64_t>(
            static_cast<std::int64_t>(canonical_old) + delta_old);
      }
      if (cap.used + size > cap.capacity) {
        // Evict the recency tail until the new document fits — exactly
        // Cache::evict_until_fits's strict `used + size > capacity` loop,
        // answered in O(log N) by the joint bit-descend.
        const auto budget =
            static_cast<std::int64_t>(cap.capacity - size);
        const Boundary kept =
            find_boundary(bytes, cap.delta.get(), cap.boundary, budget);
        res.evictions += static_cast<std::uint64_t>(
            counts.prefix(cap.boundary) - counts.prefix(kept.pos));
        cap.boundary = kept.pos;
        cap.used = static_cast<std::uint64_t>(kept.bytes);
      }
      cap.used += size;
      if (cap.boundary < ns) cap.boundary = ns;
    }

    bytes.add(ns, static_cast<std::int64_t>(size));
    counts.add(ns, 1);
    doc->slot = ns;
    doc->last_size = size;
  }
  return results;
}

}  // namespace

StackSweep::StackSweep(std::vector<std::uint64_t> capacities,
                       SimulatorOptions options)
    : capacities_(std::move(capacities)), options_(options) {
  if (capacities_.empty()) {
    throw std::invalid_argument("stack_sweep: no capacities configured");
  }
  detail::validate_options(options_);
}

std::vector<SimResult> StackSweep::run(const trace::DenseTrace& trace) const {
  return run_stack(trace, capacities_, options_);
}

std::vector<SimResult> StackSweep::run(const trace::Trace& trace) const {
  return run(trace::densify(trace));
}

std::uint64_t StackSweep::max_transfer_size(const trace::Trace& trace) {
  std::uint64_t largest = 0;
  for (const trace::Request& r : trace.requests) {
    if (r.transfer_size > largest) largest = r.transfer_size;
  }
  return largest;
}

}  // namespace webcache::sim
