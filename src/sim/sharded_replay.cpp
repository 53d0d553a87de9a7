#include "sim/sharded_replay.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/frontend.hpp"
#include "sim/faults.hpp"  // detail::mix64
#include "sim/last_size.hpp"
#include "util/parallel.hpp"

namespace webcache::sim {

namespace {

using detail::SizeChange;
using detail::classify_size_change;

// Internal dense ids are 32-bit so the recency core's intrusive list fits
// in two u32 per document; kNil doubles as "no neighbor" and as the bound
// above which the engine falls back to serial simulate().
constexpr std::uint32_t kNil = 0xffffffffu;

// Per-request outcome byte emitted by the resolve stage.
enum : std::uint8_t {
  kOutHit = 0,
  kOutMiss = 1,
  kOutBypass = 2,
  kOutMissInvalidated = 3,    // modification drop, then insert
  kOutBypassInvalidated = 4,  // modification drop, then admission reject
};

// Per-request flags byte emitted by the annotate stage.
enum : std::uint8_t { kFlagModified = 1, kFlagInterrupted = 2 };

using detail::admission_limit_of;
using detail::validate_options;

std::uint64_t warmup_of(std::uint64_t total, const SimulatorOptions& options) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(total) * options.warmup_fraction));
}

std::uint32_t shard_of(std::uint64_t key, std::uint32_t shards) {
  return static_cast<std::uint32_t>(detail::mix64(key) % shards);
}

// One request as its shard sees it: the trace index keeps the global order
// recoverable, so annotate/account stages write per-request slots without
// any cross-shard coordination.
struct ShardEntry {
  std::uint64_t doc = 0;   // trace document id (sparse or dense)
  std::uint64_t size = 0;  // transfer size
  std::uint64_t index = 0; // 0-based global request index
  trace::DocumentClass cls = trace::DocumentClass::kOther;
};

// Stage 1: carve the per-shard request queues in one partitioning pass.
// Exact mode shards by trace document id; approx mode shards by the
// pre-densification id (original != nullptr), so sparse and dense replays
// of the same trace land every document in the same shard.
std::vector<std::vector<ShardEntry>> carve_queues(
    const trace::Trace& trace, std::uint32_t shards,
    const std::vector<trace::DocumentId>* original) {
  std::vector<std::uint64_t> counts(shards, 0);
  for (const trace::Request& r : trace.requests) {
    const std::uint64_t key =
        original ? (*original)[static_cast<std::size_t>(r.document)]
                 : r.document;
    ++counts[shard_of(key, shards)];
  }
  std::vector<std::vector<ShardEntry>> queues(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    queues[s].reserve(static_cast<std::size_t>(counts[s]));
  }
  std::uint64_t index = 0;
  for (const trace::Request& r : trace.requests) {
    const std::uint64_t key =
        original ? (*original)[static_cast<std::size_t>(r.document)]
                 : r.document;
    queues[shard_of(key, shards)].push_back(
        ShardEntry{r.document, r.transfer_size, index, r.doc_class});
    ++index;
  }
  return queues;
}

// ---- exact mode -----------------------------------------------------------

// Stage-2 output: the per-request annotations the serial resolve consumes.
struct ExactAnnotations {
  std::vector<std::uint8_t> flags;   // kFlagModified | kFlagInterrupted
  std::vector<std::uint32_t> docid;  // dense internal document id
  std::uint64_t doc_count = 0;       // bound on docid values (exclusive)
};

// Stage 2, sparse traces: each document's whole history lives in one shard,
// so the per-document last-size chain (the serial loop's SparseLastSize)
// resolves shard-locally, and each shard densifies its documents into a
// local id range lifted to a global range by prefix-sum base offsets.
// classify_size_change is outcome-independent (the serial loop overwrites
// *previous unconditionally), which is what makes this stage parallel.
ExactAnnotations annotate_sparse(const trace::Trace& trace,
                                 const std::vector<std::vector<ShardEntry>>& queues,
                                 const SimulatorOptions& options,
                                 std::uint32_t threads) {
  ExactAnnotations out;
  const std::size_t n = trace.requests.size();
  out.flags.assign(n, 0);
  out.docid.assign(n, 0);

  std::vector<std::uint32_t> shard_docs(queues.size(), 0);
  util::parallel_for(queues.size(), threads, [&](std::size_t s) {
    struct DocState {
      std::uint32_t local;
      std::uint64_t last_size;
    };
    std::unordered_map<std::uint64_t, DocState> docs;
    docs.reserve(queues[s].size() / 2 + 16);
    std::uint32_t next_local = 0;
    for (const ShardEntry& e : queues[s]) {
      auto [it, inserted] = docs.try_emplace(e.doc, DocState{next_local, e.size});
      if (inserted) {
        ++next_local;
      } else {
        const SizeChange change =
            classify_size_change(it->second.last_size, e.size, options);
        it->second.last_size = e.size;
        out.flags[e.index] =
            static_cast<std::uint8_t>((change.modified ? kFlagModified : 0) |
                                      (change.interrupted ? kFlagInterrupted : 0));
      }
      out.docid[e.index] = it->second.local;
    }
    shard_docs[s] = next_local;
  });

  std::vector<std::uint64_t> base(queues.size(), 0);
  std::uint64_t total_docs = 0;
  for (std::size_t s = 0; s < queues.size(); ++s) {
    base[s] = total_docs;
    total_docs += shard_docs[s];
  }
  out.doc_count = total_docs;
  util::parallel_for(queues.size(), threads, [&](std::size_t s) {
    const auto offset = static_cast<std::uint32_t>(base[s]);
    if (offset == 0) return;
    for (const ShardEntry& e : queues[s]) out.docid[e.index] += offset;
  });
  return out;
}

// Stage 2, dense traces: ids are already dense, so only the size chains
// resolve here. One shared flat DenseLastSize is safe: each document (and
// therefore each slot) is touched by exactly one shard.
ExactAnnotations annotate_dense(const trace::Trace& trace,
                                std::uint64_t universe,
                                const std::vector<std::vector<ShardEntry>>& queues,
                                const SimulatorOptions& options,
                                std::uint32_t threads) {
  ExactAnnotations out;
  const std::size_t n = trace.requests.size();
  out.flags.assign(n, 0);
  out.docid.assign(n, 0);
  out.doc_count = universe;

  detail::DenseLastSize last_size(universe);
  util::parallel_for(queues.size(), threads, [&](std::size_t s) {
    for (const ShardEntry& e : queues[s]) {
      out.docid[e.index] = static_cast<std::uint32_t>(e.doc);
      if (std::uint64_t* previous = last_size.lookup(e.doc, e.size)) {
        const SizeChange change =
            classify_size_change(*previous, e.size, options);
        *previous = e.size;
        out.flags[e.index] =
            static_cast<std::uint8_t>((change.modified ? kFlagModified : 0) |
                                      (change.interrupted ? kFlagInterrupted : 0));
      }
    }
  });
  return out;
}

// Stage 3: the lean serial recency core. Flat arrays over dense internal
// ids, an intrusive doubly-linked recency list (insert at head; LRU moves
// to head on hit, FIFO does not; the victim is the tail), and the exact
// Cache::access decision order: hit check, modification drop, admission
// check, demand eviction, insert. Stored size is recorded on insert and
// never refreshed by hits — the byte-LRU semantics the serial simulator
// has. Emits one outcome byte per request for the accounting stage.
//
// Policies outside the LRU/FIFO list specialization (RANDOM, CLOCK,
// DELAY-CLOCK) run through a real ReplacementPolicy instance over the
// dense slab instead of the intrusive list: the core replays the serial
// container's exact hook order (on_hit / choose_victim / on_evict /
// on_erase / on_insert), so any policy whose evolution depends only on
// that call sequence — never on id numbering or object metadata — is
// bit-identical to simulate(). That is precisely the exact_eligible()
// contract; the promotion-mutating lazy-LRU variants stay approx-only
// not because the serial replay here would diverge, but because their
// hit path writes the recency structure, which is the property the
// exact engine's eligibility rule is documenting.
class ExactCore {
 public:
  ExactCore(std::uint64_t doc_count, std::uint64_t capacity_bytes,
            std::uint64_t admission_limit, const cache::PolicySpec& spec)
      : capacity_bytes_(capacity_bytes),
        admission_limit_(admission_limit),
        move_on_hit_(spec.kind != cache::PolicyKind::kFifo),
        // Only LruPolicy reports its order as heap_entries; FIFO and
        // LRU-Threshold have no policy_probe override, so serial snapshots
        // show 0 for them and ours must too.
        probe_heap_(spec.kind == cache::PolicyKind::kLru),
        stored_(static_cast<std::size_t>(doc_count), 0),
        cls_(static_cast<std::size_t>(doc_count), 0),
        resident_(static_cast<std::size_t>(doc_count), 0),
        prev_(static_cast<std::size_t>(doc_count), kNil),
        next_(static_cast<std::size_t>(doc_count), kNil) {
    if (spec.kind == cache::PolicyKind::kRandom ||
        spec.kind == cache::PolicyKind::kClock ||
        spec.kind == cache::PolicyKind::kDelayClock) {
      policy_ = cache::make_policy(spec);
      policy_->reserve_ids(doc_count);
    }
  }

  template <typename Sink>
  void replay(const trace::Trace& trace,
              const std::vector<std::uint32_t>& docid,
              const std::vector<std::uint8_t>& flags, std::uint64_t warmup,
              std::vector<std::uint8_t>& outcomes, Sink& sink) {
    const std::size_t n = trace.requests.size();
    for (std::size_t i = 0; i < n; ++i) {
      const trace::Request& r = trace.requests[i];
      const std::uint64_t size = r.transfer_size;
      const std::uint32_t d = docid[i];
      std::uint8_t out;
      if (resident_[d] != 0 && (flags[i] & kFlagModified) == 0) {
        if (policy_) {
          policy_->on_hit(hook_object(d));
        } else if (move_on_hit_) {
          move_to_front(d);
        }
        out = kOutHit;
      } else {
        bool invalidated = false;
        if (resident_[d] != 0) {
          remove(d, cache::RemovalCause::kInvalidation, sink);
          invalidated = true;
        }
        if (size <= capacity_bytes_ &&
            (admission_limit_ == 0 || size <= admission_limit_)) {
          while (used_bytes_ + size > capacity_bytes_) {
            ++evictions_;
            const std::uint32_t victim =
                policy_ ? static_cast<std::uint32_t>(
                              policy_->choose_victim(size))
                        : tail_;
            remove(victim, cache::RemovalCause::kEviction, sink);
          }
          stored_[d] = size;
          cls_[d] = static_cast<std::uint8_t>(r.doc_class);
          resident_[d] = 1;
          used_bytes_ += size;
          ++resident_objects_;
          if (policy_) {
            policy_->on_insert(hook_object(d));
          } else {
            push_front(d);
          }
          out = invalidated ? kOutMissInvalidated : kOutMiss;
        } else {
          out = invalidated ? kOutBypassInvalidated : kOutBypass;
        }
      }
      outcomes[i] = out;
      sink.on_access(r.doc_class, size, access_kind(out),
                     static_cast<std::uint64_t>(i) + 1 > warmup);
    }
  }

  std::uint64_t evictions() const { return evictions_; }

  obs::Snapshot snapshot() const {
    obs::Snapshot s;
    s.occupancy_bytes = used_bytes_;
    s.occupancy_objects = resident_objects_;
    if (policy_) {
      const cache::PolicyProbe probe = policy_->probe();
      s.heap_entries = probe.heap_entries;
      s.aging = probe.aging;
      s.beta = probe.beta;
    } else {
      s.heap_entries = probe_heap_ ? resident_objects_ : 0;
    }
    return s;
  }

  static cache::Cache::AccessKind access_kind(std::uint8_t out) {
    switch (out) {
      case kOutHit:
        return cache::Cache::AccessKind::kHit;
      case kOutBypass:
      case kOutBypassInvalidated:
        return cache::Cache::AccessKind::kBypass;
      default:
        return cache::Cache::AccessKind::kMiss;
    }
  }

 private:
  // The hook argument the serial container would pass; the exact-eligible
  // policies read only the id (that is what makes them exact-eligible), so
  // access-clock metadata is deliberately left at its defaults.
  cache::CacheObject hook_object(std::uint32_t d) const {
    cache::CacheObject obj;
    obj.id = d;
    obj.size = stored_[d];
    obj.doc_class = static_cast<trace::DocumentClass>(cls_[d]);
    return obj;
  }

  template <typename Sink>
  void remove(std::uint32_t d, cache::RemovalCause cause, Sink& sink) {
    used_bytes_ -= stored_[d];
    resident_[d] = 0;
    --resident_objects_;
    if (policy_) {
      if (cause == cache::RemovalCause::kEviction) {
        policy_->on_evict(d);
      } else {
        policy_->on_erase(d);
      }
    } else {
      unlink(d);
    }
    if constexpr (!std::is_same_v<std::remove_cvref_t<Sink>, obs::NullSink>) {
      cache::CacheObject obj;
      obj.id = d;
      obj.size = stored_[d];
      obj.doc_class = static_cast<trace::DocumentClass>(cls_[d]);
      sink.on_removal(obj, cause);
    }
  }

  void push_front(std::uint32_t d) {
    prev_[d] = kNil;
    next_[d] = head_;
    if (head_ != kNil) prev_[head_] = d;
    head_ = d;
    if (tail_ == kNil) tail_ = d;
  }

  void unlink(std::uint32_t d) {
    if (prev_[d] != kNil) {
      next_[prev_[d]] = next_[d];
    } else {
      head_ = next_[d];
    }
    if (next_[d] != kNil) {
      prev_[next_[d]] = prev_[d];
    } else {
      tail_ = prev_[d];
    }
    prev_[d] = kNil;
    next_[d] = kNil;
  }

  void move_to_front(std::uint32_t d) {
    if (head_ == d) return;
    unlink(d);
    push_front(d);
  }

  std::uint64_t capacity_bytes_;
  std::uint64_t admission_limit_;
  bool move_on_hit_;
  bool probe_heap_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t resident_objects_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::vector<std::uint64_t> stored_;
  std::vector<std::uint8_t> cls_;
  std::vector<std::uint8_t> resident_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  // Set only for the policy-backed kinds; null keeps the intrusive-list
  // fast path for LRU / FIFO / LRU-THOLD.
  std::unique_ptr<cache::ReplacementPolicy> policy_;
};

// Stage-4 output: one shard's integer counters.
struct ShardTotals {
  std::array<HitCounters, trace::kDocumentClassCount> per_class{};
  std::uint64_t bypasses = 0;
  std::uint64_t modification_misses = 0;
  std::uint64_t interrupted_transfers = 0;
};

void account_shard(const std::vector<ShardEntry>& queue,
                   const std::vector<std::uint8_t>& outcomes,
                   const std::vector<std::uint8_t>& flags,
                   std::uint64_t warmup, ShardTotals& totals) {
  for (const ShardEntry& e : queue) {
    if (e.index + 1 <= warmup) continue;
    HitCounters& cls = totals.per_class[static_cast<std::size_t>(e.cls)];
    cls.requests += 1;
    cls.requested_bytes += e.size;
    const std::uint8_t out = outcomes[e.index];
    if (out == kOutHit) {
      cls.hits += 1;
      cls.hit_bytes += e.size;
    } else if (out == kOutBypass || out == kOutBypassInvalidated) {
      totals.bypasses += 1;
    }
    if (out == kOutMissInvalidated || out == kOutBypassInvalidated) {
      totals.modification_misses += 1;
    }
    if ((flags[e.index] & kFlagInterrupted) != 0) {
      totals.interrupted_transfers += 1;
    }
  }
}

// The latency doubles must accumulate in trace order to be bit-identical
// to the serial loop (FP addition is not associative), so one accounting
// task walks the measured tail sequentially — two accumulators fed the
// same value sequence as the serial loop's.
void account_latency(const trace::Trace& trace,
                     const std::vector<std::uint8_t>& outcomes,
                     std::uint64_t warmup, const SimulatorOptions& options,
                     double& miss_latency_ms, double& all_miss_latency_ms) {
  double miss = 0.0;
  double all_miss = 0.0;
  const std::size_t n = trace.requests.size();
  for (std::size_t i = static_cast<std::size_t>(warmup); i < n; ++i) {
    const double fetch_latency =
        options.latency_setup_ms +
        static_cast<double>(trace.requests[i].transfer_size) /
            options.latency_bytes_per_ms;
    all_miss += fetch_latency;
    if (outcomes[i] != kOutHit) miss += fetch_latency;
  }
  miss_latency_ms = miss;
  all_miss_latency_ms = all_miss;
}

// ---- approx mode ----------------------------------------------------------

// Splits `capacity` proportionally to `weights` (128-bit exact floor, the
// remainder distributed one byte at a time over the non-zero-weight shards
// in index order — deterministic, and off by at most shards-1 before the
// remainder pass). All weights zero gives everything to shard 0.
std::vector<std::uint64_t> proportional_quotas(
    std::uint64_t capacity, const std::vector<std::uint64_t>& weights) {
  std::vector<std::uint64_t> quotas(weights.size(), 0);
  unsigned __int128 total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) {
    quotas[0] = capacity;
    return quotas;
  }
  std::uint64_t assigned = 0;
  for (std::size_t s = 0; s < weights.size(); ++s) {
    quotas[s] = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(capacity) * weights[s] / total);
    assigned += quotas[s];
  }
  std::uint64_t rest = capacity - assigned;
  for (std::size_t s = 0; rest > 0; s = (s + 1) % weights.size()) {
    if (weights[s] == 0) continue;
    ++quotas[s];
    --rest;
  }
  return quotas;
}

struct ApproxShardState {
  std::unique_ptr<cache::SingleCacheFrontend> frontend;
  std::unique_ptr<detail::SparseLastSize> sparse_last;  // sparse traces only
  std::size_t cursor = 0;           // next unprocessed queue position
  std::uint64_t demand_bytes = 0;   // cumulative requested bytes processed
  ShardTotals totals;
  double miss_latency_ms = 0.0;
  double all_miss_latency_ms = 0.0;
};

}  // namespace

// ---- ShardedReplay --------------------------------------------------------

ShardedReplay::ShardedReplay(std::uint64_t capacity_bytes,
                             const cache::PolicySpec& policy,
                             const SimulatorOptions& options,
                             const ShardedConfig& config)
    : capacity_bytes_(capacity_bytes),
      policy_(policy),
      options_(options),
      threads_(util::resolve_threads(config.threads)),
      mode_(config.mode),
      rebalance_interval_(config.rebalance_interval) {
  validate_options(options);
  if (options.occupancy_samples != 0) {
    throw std::invalid_argument(
        "ShardedReplay: occupancy sampling is not supported "
        "(occupancy_samples must be 0)");
  }
  if (mode_ == ShardedMode::kExact && !exact_eligible(policy, options)) {
    throw std::invalid_argument(
        "ShardedReplay: policy has a heap-ordered or promotion-mutating hit "
        "path; exact mode covers LRU/FIFO/LRU-THOLD/RANDOM/CLOCK/DELAY-CLOCK "
        "only — use the approximate mode (ShardedMode::kApprox)");
  }
  shards_ = config.shards != 0
                ? config.shards
                : (mode_ == ShardedMode::kExact ? threads_
                                                : kDefaultApproxShards);
  // Exact output is shard-count invariant (always == serial), so a 1-thread
  // auto-shard run takes the plain serial path with zero overhead. Approx
  // output depends on the shard count, so it only delegates when a single
  // shard makes the pipeline literally serial.
  serial_delegate_ = mode_ == ShardedMode::kExact
                         ? (threads_ <= 1 && shards_ <= 1)
                         : shards_ <= 1;
}

bool ShardedReplay::exact_eligible(const cache::PolicySpec& policy,
                                   const SimulatorOptions& options) {
  // LRU/FIFO/LRU-THOLD run on the intrusive-list fast path; RANDOM, CLOCK
  // and DELAY-CLOCK run a real policy instance inside the serial resolve
  // stage. All five qualify because their hit path never reorders the
  // eviction structure (RANDOM/CLOCK touch a counter or nothing), so the
  // replayed hook sequence is id-numbering independent. The lazy-LRU
  // promotion variants (PROB-LRU, DELAY-LRU, BATCH-LRU) mutate the
  // recency list on hits and stay approx-only.
  const bool eligible = policy.kind == cache::PolicyKind::kLru ||
                        policy.kind == cache::PolicyKind::kFifo ||
                        policy.kind == cache::PolicyKind::kLruThreshold ||
                        policy.kind == cache::PolicyKind::kRandom ||
                        policy.kind == cache::PolicyKind::kClock ||
                        policy.kind == cache::PolicyKind::kDelayClock;
  return eligible && options.occupancy_samples == 0;
}

namespace {

// Drives the five-stage exact pipeline. `universe` > 0 marks a dense trace.
template <typename Sink>
SimResult run_exact_pipeline(const trace::Trace& trace, std::uint64_t universe,
                             std::uint64_t capacity_bytes,
                             const cache::PolicySpec& policy,
                             const SimulatorOptions& options,
                             std::uint32_t threads, std::uint32_t shards,
                             Sink& sink) {
  const std::uint64_t total = trace.requests.size();
  const std::uint64_t warmup = warmup_of(total, options);

  const std::vector<std::vector<ShardEntry>> queues =
      carve_queues(trace, shards, nullptr);
  const ExactAnnotations ann =
      universe > 0 ? annotate_dense(trace, universe, queues, options, threads)
                   : annotate_sparse(trace, queues, options, threads);

  ExactCore core(ann.doc_count, capacity_bytes, admission_limit_of(policy),
                 policy);
  std::vector<std::uint8_t> outcomes(trace.requests.size(), 0);
  constexpr bool kInstrumented =
      std::is_same_v<std::remove_cvref_t<Sink>, obs::RecordingSink>;
  if constexpr (kInstrumented) {
    sink.begin_run([&core] { return core.snapshot(); });
  }
  core.replay(trace, ann.docid, ann.flags, warmup, outcomes, sink);
  if constexpr (kInstrumented) {
    sink.end_run();
  }

  std::vector<ShardTotals> totals(shards);
  double miss_latency_ms = 0.0;
  double all_miss_latency_ms = 0.0;
  util::parallel_for(static_cast<std::size_t>(shards) + 1, threads,
                     [&](std::size_t task) {
                       if (task < shards) {
                         account_shard(queues[task], outcomes, ann.flags,
                                       warmup, totals[task]);
                       } else {
                         account_latency(trace, outcomes, warmup, options,
                                         miss_latency_ms, all_miss_latency_ms);
                       }
                     });

  SimResult result;
  result.policy_name = cache::make_policy(policy)->name();
  result.capacity_bytes = capacity_bytes;
  result.warmup_requests = warmup;
  result.measured_requests = total - warmup;
  result.evictions = core.evictions();
  result.miss_latency_ms = miss_latency_ms;
  result.all_miss_latency_ms = all_miss_latency_ms;
  for (const ShardTotals& t : totals) {
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      result.per_class[c].merge(t.per_class[c]);
    }
    result.bypasses += t.bypasses;
    result.modification_misses += t.modification_misses;
    result.interrupted_transfers += t.interrupted_transfers;
  }
  // The serial loop bumps the class counter and the overall counter on the
  // same request, so the overall block is exactly the class sum.
  for (const HitCounters& c : result.per_class) result.overall.merge(c);
  return result;
}

// Approx mode: per-shard caches over proportional byte quotas, optionally
// rebalanced at deterministic request-index epochs. `universe` > 0 marks a
// dense trace; `original` maps dense ids back for shard placement.
SimResult run_approx_pipeline(const trace::Trace& trace, std::uint64_t universe,
                              const std::vector<trace::DocumentId>* original,
                              std::uint64_t capacity_bytes,
                              const cache::PolicySpec& policy,
                              const SimulatorOptions& options,
                              std::uint32_t threads, std::uint32_t shards,
                              std::uint64_t rebalance_interval) {
  const std::uint64_t total = trace.requests.size();
  const std::uint64_t warmup = warmup_of(total, options);

  const std::vector<std::vector<ShardEntry>> queues =
      carve_queues(trace, shards, original);

  // Static quotas follow the full-trace demand; with rebalancing they
  // follow the demand seen so far, re-split at every epoch boundary.
  std::vector<std::uint64_t> demand(shards, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (const ShardEntry& e : queues[s]) demand[s] += e.size;
  }
  const std::vector<std::uint64_t> initial_quotas = proportional_quotas(
      capacity_bytes, rebalance_interval > 0
                          ? std::vector<std::uint64_t>(shards, 1)
                          : demand);

  const std::uint64_t admission_limit = admission_limit_of(policy);
  std::vector<ApproxShardState> states(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    states[s].frontend = std::make_unique<cache::SingleCacheFrontend>(
        initial_quotas[s], cache::make_policy(policy), admission_limit);
    if (universe > 0) {
      states[s].frontend->reserve_dense_ids(universe);
    } else {
      states[s].sparse_last =
          std::make_unique<detail::SparseLastSize>(queues[s].size());
    }
  }
  // Dense traces share one flat last-size table; each document's slot is
  // touched by exactly one shard, so parallel access is race-free.
  detail::DenseLastSize dense_last(universe);

  // Replays one shard's queue up to (not including) global request index
  // `end`. Writes only shard-local state.
  auto process = [&](std::size_t s, std::uint64_t end) {
    ApproxShardState& st = states[s];
    const std::vector<ShardEntry>& queue = queues[s];
    while (st.cursor < queue.size() && queue[st.cursor].index < end) {
      const ShardEntry& e = queue[st.cursor];
      ++st.cursor;
      st.demand_bytes += e.size;
      SizeChange change;
      std::uint64_t* previous = universe > 0
                                    ? dense_last.lookup(e.doc, e.size)
                                    : st.sparse_last->lookup(e.doc, e.size);
      if (previous != nullptr) {
        change = classify_size_change(*previous, e.size, options);
        *previous = e.size;
      }
      const auto outcome =
          st.frontend->access(e.doc, e.size, e.cls, change.modified);
      if (e.index + 1 > warmup) {
        HitCounters& cls = st.totals.per_class[static_cast<std::size_t>(e.cls)];
        cls.requests += 1;
        cls.requested_bytes += e.size;
        const double fetch_latency =
            options.latency_setup_ms +
            static_cast<double>(e.size) / options.latency_bytes_per_ms;
        st.all_miss_latency_ms += fetch_latency;
        switch (outcome.kind) {
          case cache::Cache::AccessKind::kHit:
            cls.hits += 1;
            cls.hit_bytes += e.size;
            break;
          case cache::Cache::AccessKind::kBypass:
            st.totals.bypasses += 1;
            st.miss_latency_ms += fetch_latency;
            break;
          case cache::Cache::AccessKind::kMiss:
            st.miss_latency_ms += fetch_latency;
            break;
        }
        if (change.modified && outcome.was_resident) {
          st.totals.modification_misses += 1;
        }
        if (change.interrupted) st.totals.interrupted_transfers += 1;
      }
    }
  };

  if (rebalance_interval == 0) {
    util::parallel_for(shards, threads, [&](std::size_t s) {
      process(s, total);
    });
  } else {
    for (std::uint64_t start = 0; start < total;
         start += rebalance_interval) {
      const std::uint64_t end = std::min(total, start + rebalance_interval);
      util::parallel_for(shards, threads,
                         [&](std::size_t s) { process(s, end); });
      if (end == total) break;
      // Serial barrier: re-split the budget over the demand observed so
      // far; shrunk shards evict down (counted as ordinary evictions).
      std::vector<std::uint64_t> seen(shards, 0);
      for (std::uint32_t s = 0; s < shards; ++s) {
        seen[s] = states[s].demand_bytes;
      }
      const std::vector<std::uint64_t> quotas =
          proportional_quotas(capacity_bytes, seen);
      for (std::uint32_t s = 0; s < shards; ++s) {
        states[s].frontend->cache().resize(quotas[s]);
      }
    }
  }

  SimResult result;
  result.policy_name = cache::make_policy(policy)->name();
  result.capacity_bytes = capacity_bytes;
  result.warmup_requests = warmup;
  result.measured_requests = total - warmup;
  for (const ApproxShardState& st : states) {
    result.evictions += st.frontend->eviction_count();
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      result.per_class[c].merge(st.totals.per_class[c]);
    }
    result.bypasses += st.totals.bypasses;
    result.modification_misses += st.totals.modification_misses;
    result.interrupted_transfers += st.totals.interrupted_transfers;
    // Shard-index order keeps the FP sums deterministic (and therefore
    // thread-count invariant); they are NOT the serial trace-order sums.
    result.miss_latency_ms += st.miss_latency_ms;
    result.all_miss_latency_ms += st.all_miss_latency_ms;
  }
  for (const HitCounters& c : result.per_class) result.overall.merge(c);
  return result;
}

}  // namespace

SimResult ShardedReplay::run(const trace::Trace& trace) const {
  if (serial_delegate_) {
    return simulate(trace, capacity_bytes_, policy_, options_);
  }
  if (mode_ == ShardedMode::kApprox) {
    return run_approx_pipeline(trace, 0, nullptr, capacity_bytes_, policy_,
                               options_, threads_, shards_,
                               rebalance_interval_);
  }
  if (trace.requests.size() >= kNil) {
    return simulate(trace, capacity_bytes_, policy_, options_);
  }
  obs::NullSink sink;
  return run_exact_pipeline(trace, 0, capacity_bytes_, policy_, options_,
                            threads_, shards_, sink);
}

SimResult ShardedReplay::run(const trace::DenseTrace& trace) const {
  if (serial_delegate_) {
    return simulate(trace, capacity_bytes_, policy_, options_);
  }
  if (mode_ == ShardedMode::kApprox) {
    return run_approx_pipeline(trace.trace, trace.document_count(),
                               &trace.original_ids, capacity_bytes_, policy_,
                               options_, threads_, shards_,
                               rebalance_interval_);
  }
  if (trace.trace.requests.size() >= kNil || trace.document_count() >= kNil) {
    return simulate(trace, capacity_bytes_, policy_, options_);
  }
  obs::NullSink sink;
  return run_exact_pipeline(trace.trace, trace.document_count(),
                            capacity_bytes_, policy_, options_, threads_,
                            shards_, sink);
}

SimResult ShardedReplay::run(const trace::Trace& trace,
                             obs::RecordingSink& sink) const {
  if (mode_ == ShardedMode::kApprox) {
    throw std::invalid_argument(
        "ShardedReplay: the approximate mode has no single-timeline metrics "
        "stream; instrumented runs need ShardedMode::kExact");
  }
  if (serial_delegate_ || trace.requests.size() >= kNil) {
    return simulate(trace, capacity_bytes_, policy_, options_, sink);
  }
  return run_exact_pipeline(trace, 0, capacity_bytes_, policy_, options_,
                            threads_, shards_, sink);
}

SimResult ShardedReplay::run(const trace::DenseTrace& trace,
                             obs::RecordingSink& sink) const {
  if (mode_ == ShardedMode::kApprox) {
    throw std::invalid_argument(
        "ShardedReplay: the approximate mode has no single-timeline metrics "
        "stream; instrumented runs need ShardedMode::kExact");
  }
  if (serial_delegate_ || trace.trace.requests.size() >= kNil ||
      trace.document_count() >= kNil) {
    return simulate(trace, capacity_bytes_, policy_, options_, sink);
  }
  return run_exact_pipeline(trace.trace, trace.document_count(),
                            capacity_bytes_, policy_, options_, threads_,
                            shards_, sink);
}

SimResult simulate_sharded(const trace::Trace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config) {
  return ShardedReplay(capacity_bytes, policy, options, config).run(trace);
}

SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config) {
  return ShardedReplay(capacity_bytes, policy, options, config).run(trace);
}

SimResult simulate_sharded(const trace::Trace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config,
                           obs::RecordingSink& sink) {
  return ShardedReplay(capacity_bytes, policy, options, config)
      .run(trace, sink);
}

SimResult simulate_sharded(const trace::DenseTrace& trace,
                           std::uint64_t capacity_bytes,
                           const cache::PolicySpec& policy,
                           const SimulatorOptions& options,
                           const ShardedConfig& config,
                           obs::RecordingSink& sink) {
  return ShardedReplay(capacity_bytes, policy, options, config)
      .run(trace, sink);
}

}  // namespace webcache::sim
