#include "support/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "cache/beta_estimator.hpp"

namespace webcache::oracle {

namespace {

using cache::CostModelKind;
using cache::PolicyKind;

enum class Outcome { kHit, kMiss, kBypass };

struct Resident {
  std::uint64_t size = 0;         // bytes stored at insertion
  std::uint64_t references = 0;   // f(p): requests since insertion
  std::uint64_t last_access = 0;  // request index of the latest use
  std::uint64_t inserted = 0;     // insertion order, the tie-breaker
  double priority = 0.0;          // H(p) of the value-based schemes
};

// c(p): 1 under the constant model, 2 + s/536 TCP packets under the packet
// model.
double cost_of(CostModelKind model, std::uint64_t size) {
  return model == CostModelKind::kPacket
             ? 2.0 + static_cast<double>(size) / 536.0
             : 1.0;
}

std::string name_of(const cache::PolicySpec& spec) {
  const std::string cost =
      spec.cost_model == CostModelKind::kPacket ? "packet" : "1";
  switch (spec.kind) {
    case PolicyKind::kLru:
      return "LRU";
    case PolicyKind::kLruThreshold:
      return "LRU-THOLD(" + std::to_string(spec.admission_threshold_bytes) +
             ")";
    case PolicyKind::kLfuDa:
      return "LFU-DA";
    case PolicyKind::kGds:
      return "GDS(" + cost + ")";
    default:
      return "GD*(" + cost + ")";
  }
}

// One proxy cache. On a miss the document is stored after evicting the
// lowest-ranked residents until it fits; it bypasses the cache when it is
// larger than the cache (or than LRU-THOLD's limit). GreedyDual's "subtract
// H_min from every H" is the usual running inflation L, raised to the H of
// each evicted document.
class TextbookCache {
 public:
  TextbookCache(std::uint64_t capacity, const cache::PolicySpec& spec)
      : capacity_(capacity),
        spec_(spec),
        limit_(spec.kind == PolicyKind::kLruThreshold
                   ? spec.admission_threshold_bytes
                   : 0) {}

  bool holds(trace::DocumentId id) const { return docs_.contains(id); }

  // A modified document's resident copy is stale: it is dropped and the
  // request is a miss.
  Outcome request(trace::DocumentId id, std::uint64_t size, bool modified,
                  std::uint64_t& evictions) {
    ++clock_;
    const auto it = docs_.find(id);
    if (it != docs_.end() && !modified) {
      Resident& doc = it->second;
      const std::uint64_t gap = clock_ - doc.last_access;
      doc.last_access = clock_;
      ++doc.references;
      if (spec_.kind == PolicyKind::kGdStar) beta_.observe_gap(gap);
      doc.priority = value_of(doc);
      return Outcome::kHit;
    }
    if (it != docs_.end()) {
      used_ -= it->second.size;
      docs_.erase(it);
    }
    if (size > capacity_ || (limit_ != 0 && size > limit_)) {
      return Outcome::kBypass;
    }
    while (used_ + size > capacity_) {
      const auto victim =
          std::min_element(docs_.begin(), docs_.end(),
                           [&](const auto& a, const auto& b) {
                             return ranks_below(a.second, b.second);
                           });
      inflation_ = victim->second.priority;
      used_ -= victim->second.size;
      docs_.erase(victim);
      ++evictions;
    }
    Resident doc;
    doc.size = size;
    doc.references = 1;
    doc.last_access = clock_;
    doc.inserted = inserted_++;
    doc.priority = value_of(doc);
    docs_.emplace(id, doc);
    used_ += size;
    return Outcome::kMiss;
  }

 private:
  bool recency_only() const {
    return spec_.kind == PolicyKind::kLru ||
           spec_.kind == PolicyKind::kLruThreshold;
  }

  // Whether `a` is evicted before `b`: LRU's least recent use, or the
  // lower H with ties to the earlier insertion.
  bool ranks_below(const Resident& a, const Resident& b) const {
    if (recency_only()) return a.last_access < b.last_access;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.inserted < b.inserted;
  }

  // H(p) as of now; a zero-byte document counts as one byte.
  double value_of(const Resident& doc) const {
    const double size = std::max<double>(1.0, static_cast<double>(doc.size));
    switch (spec_.kind) {
      case PolicyKind::kLfuDa:
        return inflation_ + static_cast<double>(doc.references);
      case PolicyKind::kGds:
        return inflation_ + cost_of(spec_.cost_model, doc.size) / size;
      case PolicyKind::kGdStar: {
        const double utility = static_cast<double>(doc.references) *
                               cost_of(spec_.cost_model, doc.size) / size;
        return inflation_ + std::pow(utility, beta_.exponent());
      }
      default:
        return 0.0;
    }
  }

  std::uint64_t capacity_;
  cache::PolicySpec spec_;
  std::uint64_t limit_;
  std::map<trace::DocumentId, Resident> docs_;
  std::uint64_t used_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t inserted_ = 0;
  double inflation_ = 0.0;
  cache::BetaEstimator beta_;
};

struct SizeChange {
  bool modified = false;
  bool interrupted = false;
};

// Section 4.1: a size change of less than the threshold (5 %) between two
// requests of a document is a modification, a larger one an interrupted
// transfer. The ablation rules call every change a modification, or none.
SizeChange classify(std::uint64_t previous, std::uint64_t current,
                    const sim::SimulatorOptions& options) {
  SizeChange change;
  if (previous == current) return change;
  switch (options.modification_rule) {
    case sim::ModificationRule::kAnyChange:
      change.modified = true;
      break;
    case sim::ModificationRule::kNever:
      break;
    case sim::ModificationRule::kThreshold: {
      const double prev = static_cast<double>(previous);
      const double relative = std::abs(static_cast<double>(current) - prev) /
                              std::max(prev, 1.0);
      change.modified = relative < options.modification_threshold;
      change.interrupted = !change.modified;
      break;
    }
  }
  return change;
}

}  // namespace

bool supports(const cache::PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::kLru:
    case PolicyKind::kLruThreshold:
    case PolicyKind::kLfuDa:
      return true;
    case PolicyKind::kGds:
    case PolicyKind::kGdStar:
      return !spec.fixed_beta &&
             (spec.cost_model == CostModelKind::kConstant ||
              spec.cost_model == CostModelKind::kPacket);
    default:
      return false;
  }
}

sim::SimResult replay(const trace::Trace& trace, std::uint64_t capacity_bytes,
                      const cache::PolicySpec& spec,
                      const sim::SimulatorOptions& options) {
  if (!supports(spec)) {
    throw std::invalid_argument("oracle: unsupported policy");
  }
  TextbookCache cache(capacity_bytes, spec);
  std::map<trace::DocumentId, std::uint64_t> last_size;

  sim::SimResult result;
  result.policy_name = name_of(spec);
  result.capacity_bytes = capacity_bytes;
  const std::uint64_t total = trace.requests.size();
  result.warmup_requests = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(total) * options.warmup_fraction));
  result.measured_requests = total - result.warmup_requests;

  std::uint64_t index = 0;
  for (const trace::Request& r : trace.requests) {
    ++index;
    const std::uint64_t size = r.transfer_size;
    SizeChange change;
    const auto [last, first_seen] = last_size.try_emplace(r.document, size);
    if (!first_seen) {
      change = classify(last->second, size, options);
      last->second = size;
    }
    const bool was_resident = cache.holds(r.document);
    const Outcome outcome =
        cache.request(r.document, size, change.modified, result.evictions);
    // The first warmup_fraction of the requests only fill the cache.
    if (index <= result.warmup_requests) continue;

    sim::HitCounters& cls =
        result.per_class[static_cast<std::size_t>(r.doc_class)];
    const double fetch_latency =
        options.latency_setup_ms +
        static_cast<double>(size) / options.latency_bytes_per_ms;
    for (sim::HitCounters* counters : {&cls, &result.overall}) {
      counters->requests += 1;
      counters->requested_bytes += size;
      if (outcome == Outcome::kHit) {
        counters->hits += 1;
        counters->hit_bytes += size;
      }
    }
    result.all_miss_latency_ms += fetch_latency;
    if (outcome != Outcome::kHit) result.miss_latency_ms += fetch_latency;
    if (outcome == Outcome::kBypass) result.bypasses += 1;
    if (change.modified && was_resident) result.modification_misses += 1;
    if (change.interrupted) result.interrupted_transfers += 1;
  }
  return result;
}

}  // namespace webcache::oracle
