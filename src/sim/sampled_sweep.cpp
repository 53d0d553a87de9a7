#include "sim/sampled_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "sim/faults.hpp"  // detail::mix64
#include "sim/last_size.hpp"
#include "trace/stream_ids.hpp"
#include "util/fenwick.hpp"

namespace webcache::sim {

namespace {

constexpr double kTwoPow64 = 18446744073709551616.0;

std::uint64_t sampling_hash(std::uint64_t seed, trace::DocumentId doc) {
  return detail::mix64(seed ^ detail::mix64(doc));
}

struct DocState {
  std::uint64_t slot = 0;
  std::uint64_t stored = 0;     // bytes accounted in the recency stack
  std::uint64_t last_size = 0;  // previous transfer size (modification rule)
  std::uint64_t hash = 0;       // sampling hash (adaptive eviction key)
  double w_acc = 0.0;           // measured request weight of this document
  double wb_acc = 0.0;          // measured byte weight of this document
};

// Conservative absolute-error estimate for a weighted proportion. SHARDS
// samples whole documents, so the sampling unit is the document cluster,
// not the request: n_eff is the Kish effective count over per-document
// total weights, which collapses toward 1 when a few hot documents carry
// most of the traffic. On top of the 99% normal bound over n_eff, the
// coverage deviation |scaled sampled mass / true mass - 1| is added with a
// safety factor: the stream sees every request, so when the sample over-
// or under-represents traffic (a hot document drawn in or left out), the
// realized mass error measures exactly the distortion that shifts the
// ratio estimate. A continuity term and a fixed model-bias allowance for
// the stack-inclusion approximation close the bound.
double error_bound(double p, double n_eff, double coverage_dev) {
  if (!(n_eff > 1.0)) return 1.0;
  constexpr double kZ = 2.576;
  constexpr double kVarFloor = 0.01;    // keeps near-0/1 points honest
  constexpr double kCoverage = 1.5;     // ratio-shift safety factor
  constexpr double kModelBias = 0.006;  // eviction-boundary approximation
  const double var = std::max(p * (1.0 - p), kVarFloor);
  const double e = kZ * std::sqrt(var / n_eff) + kCoverage * coverage_dev +
                   4.0 / n_eff + kModelBias;
  return std::min(1.0, e);
}

std::uint64_t to_count(double w) {
  return w <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(w));
}

}  // namespace

SampledSweep::SampledSweep(SampledSweepConfig config)
    : config_(std::move(config)) {
  if (config_.capacities.empty()) {
    throw std::invalid_argument("sampled sweep: no capacities");
  }
  if (!(config_.sample_rate > 0.0) || config_.sample_rate > 1.0) {
    throw std::invalid_argument("sampled sweep: sample_rate out of (0, 1]");
  }
  detail::validate_options(config_.simulator);
}

bool SampledSweep::exact() const {
  // With an adaptive cap the bounded-memory property is the whole point,
  // so rate 1.0 with a cap stays on the sampled engine.
  return config_.sample_rate == 1.0 && config_.max_sampled_documents == 0;
}

SampledCurve SampledSweep::blank_curve(std::uint64_t total_requests) const {
  SampledCurve curve;
  curve.configured_rate = config_.sample_rate;
  curve.hash_seed = config_.hash_seed;
  curve.total_requests = total_requests;
  curve.warmup_requests = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(total_requests) *
                 config_.simulator.warmup_fraction));
  return curve;
}

SampledCurve SampledSweep::exact_curve(const trace::DenseTrace& trace) const {
  // Degenerate exact mode: one LRU replay per capacity, every point the
  // true value with zero error.
  SampledCurve curve = blank_curve(trace.total_requests());
  curve.sampled_documents = trace.document_count();
  curve.points.reserve(config_.capacities.size());
  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  for (std::size_t i = 0; i < config_.capacities.size(); ++i) {
    const SimResult& r = curve.results.emplace_back(
        simulate(trace, config_.capacities[i], lru, config_.simulator));
    SampledPoint p;
    p.capacity_bytes = config_.capacities[i];
    p.hit_rate = r.overall.hit_rate();
    p.byte_hit_rate = r.overall.byte_hit_rate();
    p.est_requests = static_cast<double>(r.overall.requests);
    p.est_hits = static_cast<double>(r.overall.hits);
    p.est_requested_bytes = static_cast<double>(r.overall.requested_bytes);
    p.est_hit_bytes = static_cast<double>(r.overall.hit_bytes);
    curve.points.push_back(p);
  }
  curve.effective_rate = 1.0;
  curve.exact = true;
  curve.sampled_requests = curve.total_requests;
  return curve;
}

SampledCurve SampledSweep::run(const trace::DenseTrace& trace) const {
  if (exact()) return exact_curve(trace);
  bool fed = false;
  return estimate(
      trace.total_requests(),
      [&] {
        std::span<const trace::ReplayRecord> all;
        if (!fed) all = trace.records;
        fed = true;
        return all;
      },
      &trace.original_ids);
}

SampledCurve SampledSweep::run(trace::RequestStream& stream) const {
  if (!exact()) {
    return estimate(
        stream.total_requests(), [&] { return stream.next_chunk(); },
        nullptr);
  }
  // Materialize the stream with its documents numbered densely as they
  // are read (the stream's stored ids, else interned).
  trace::StreamIds ids;
  trace::DenseTraceBuilder dense;
  dense.reserve(static_cast<std::size_t>(stream.total_requests()));
  for (auto chunk = stream.next_chunk(); !chunk.empty();
       chunk = stream.next_chunk()) {
    const std::span<const std::uint32_t> numbered =
        ids.number(chunk, stream.dense_ids());
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      dense.add(chunk[i], numbered[i]);
    }
  }
  return exact_curve(dense.finish());
}

template <typename NextChunk>
SampledCurve SampledSweep::estimate(
    std::uint64_t total_requests, NextChunk next_chunk,
    const std::vector<trace::DocumentId>* original) const {
  const std::size_t k = config_.capacities.size();
  SampledCurve curve = blank_curve(total_requests);

  // ---- sampled one-pass estimator ----
  std::uint64_t threshold;
  if (config_.sample_rate >= 1.0) {
    // rate 1.0 with an adaptive cap: start tracking everything and let the
    // cap drive the threshold down. (The double->u64 cast of 2^64 itself
    // would overflow.)
    threshold = std::numeric_limits<std::uint64_t>::max();
  } else {
    threshold = static_cast<std::uint64_t>(config_.sample_rate * kTwoPow64);
    if (threshold == 0) threshold = 1;
  }

  std::unordered_map<trace::DocumentId, DocState> docs;
  // Max-heap on (hash, doc) for adaptive threshold lowering; entries are
  // dropped lazily once their document leaves the table.
  using HeapEntry = std::pair<std::uint64_t, trace::DocumentId>;
  std::priority_queue<HeapEntry> by_hash;

  // Byte sums indexed by recency slot (1..slot_space; index 0 stays
  // empty). A smaller slot is more recent: slots are allocated counting
  // down.
  std::uint64_t slot_space = 1 << 16;
  std::uint64_t cursor = slot_space;  // next slot = cursor--, 0 => renumber
  util::FenwickTree fen(slot_space + 1);

  const auto renumber = [&]() {
    // Gather live docs most-recent-first (ascending slot), regrow the slot
    // space, and pack them at the top so cursor gets a fresh run of slots.
    std::vector<std::pair<std::uint64_t, trace::DocumentId>> live;
    live.reserve(docs.size());
    for (const auto& [id, st] : docs) live.emplace_back(st.slot, id);
    std::sort(live.begin(), live.end());
    const std::uint64_t n = live.size();
    slot_space = std::max<std::uint64_t>(1 << 16, 4 * n + 1024);
    fen = util::FenwickTree(slot_space + 1);
    std::uint64_t next = slot_space - n + 1;
    for (const auto& [old_slot, id] : live) {
      DocState& st = docs[id];
      st.slot = next++;
      fen.add(st.slot, st.stored);
    }
    cursor = slot_space - n;
  };

  const auto alloc_slot = [&]() {
    if (cursor == 0) renumber();
    return cursor--;
  };

  const std::uint64_t warmup = curve.warmup_requests;
  const SimulatorOptions& opt = config_.simulator;

  // Weighted accumulators. Global ones are capacity-independent; hits and
  // miss latency are per capacity.
  double req_w = 0, req_bytes_w = 0, all_lat_w = 0, interrupted_w = 0;
  std::array<double, trace::kDocumentClassCount> cls_req_w{},
      cls_req_bytes_w{};
  std::vector<double> hits_w(k, 0.0), hit_bytes_w(k, 0.0),
      miss_lat_w(k, 0.0), mod_miss_w(k, 0.0);
  std::vector<std::array<double, trace::kDocumentClassCount>> cls_hits_w(k),
      cls_hit_bytes_w(k);
  for (auto& a : cls_hits_w) a.fill(0.0);
  for (auto& a : cls_hit_bytes_w) a.fill(0.0);
  // Per-DOCUMENT Kish terms for the error bounds: each sampled document
  // contributes its total measured weight once (folded on eviction or at
  // end of run), because documents — not requests — are the sampling unit.
  double doc_w = 0, doc_w2 = 0, doc_wb = 0, doc_wb2 = 0;
  // True measured totals — the stream sees every request, so the scaled
  // sampled mass can be compared against the real one (coverage).
  double true_reqs = 0, true_bytes = 0;
  const auto fold_doc = [&](const DocState& st) {
    doc_w += st.w_acc;
    doc_w2 += st.w_acc * st.w_acc;
    doc_wb += st.wb_acc;
    doc_wb2 += st.wb_acc * st.wb_acc;
  };

  std::uint64_t index = 0;
  std::uint64_t sampled_refs = 0;
  std::uint64_t peak_tracked = 0;

  for (auto chunk = next_chunk(); !chunk.empty(); chunk = next_chunk()) {
    for (const auto& r : chunk) {
      ++index;
      const bool measured = index > warmup;
      const std::uint64_t size = r.transfer_size;
      if (measured) {
        true_reqs += 1.0;
        true_bytes += static_cast<double>(size);
      }
      const trace::DocumentId doc =
          original ? (*original)[static_cast<std::size_t>(r.document)]
                   : r.document;
      const std::uint64_t h = sampling_hash(config_.hash_seed, doc);
      if (h >= threshold) continue;
      ++sampled_refs;
      const double rate_now =
          static_cast<double>(threshold) / kTwoPow64;
      const double w = 1.0 / rate_now;

      auto it = docs.find(doc);
      const bool seen = it != docs.end();

      detail::SizeChange change;
      double eff_dist = 0.0;
      bool resident_proxy = false;
      if (seen) {
        DocState& st = it->second;
        change = detail::classify_size_change(st.last_size, size, opt);
        st.last_size = size;
        // Bytes of strictly more recently used sampled documents, scaled
        // up by the sampling rate to estimate the full-trace distance.
        const std::uint64_t below = fen.prefix_sum(st.slot + 1) - st.stored;
        eff_dist = static_cast<double>(below) / rate_now;
        resident_proxy = true;
        // Move to front with the new size.
        fen.sub(st.slot, st.stored);
        st.slot = alloc_slot();
        st.stored = size;
        fen.add(st.slot, size);
      } else {
        DocState st;
        st.slot = alloc_slot();
        st.stored = size;
        st.last_size = size;
        st.hash = h;
        fen.add(st.slot, size);
        docs.emplace(doc, st);
        by_hash.emplace(h, doc);

        if (config_.max_sampled_documents > 0 &&
            docs.size() > config_.max_sampled_documents) {
          // Rate-adaptive eviction: drop the max-hash documents and lower
          // the threshold to the largest surviving hash. An evicted hash
          // is >= every later threshold, so the document can never return
          // and its Kish contribution folds exactly once.
          while (docs.size() > config_.max_sampled_documents ||
                 (!by_hash.empty() && by_hash.top().first >= threshold)) {
            const auto [eh, edoc] = by_hash.top();
            by_hash.pop();
            auto eit = docs.find(edoc);
            if (eit == docs.end() || eit->second.hash != eh) continue;
            fen.sub(eit->second.slot, eit->second.stored);
            fold_doc(eit->second);
            docs.erase(eit);
            threshold = std::min(threshold, eh);
          }
        }
        peak_tracked = std::max<std::uint64_t>(peak_tracked, docs.size());
      }

      if (measured) {
        const double wb = w * static_cast<double>(size);
        if (auto wit = docs.find(doc); wit != docs.end()) {
          wit->second.w_acc += w;
          wit->second.wb_acc += wb;
        } else {
          // The insert above can evict the new document itself (its hash
          // was the new maximum); its single-request cluster folds here.
          doc_w += w;
          doc_w2 += w * w;
          doc_wb += wb;
          doc_wb2 += wb * wb;
        }
        req_w += w;
        req_bytes_w += wb;
        const auto cls = static_cast<std::size_t>(r.doc_class);
        cls_req_w[cls] += w;
        cls_req_bytes_w[cls] += wb;
        const double fetch_latency =
            opt.latency_setup_ms +
            static_cast<double>(size) / opt.latency_bytes_per_ms;
        all_lat_w += w * fetch_latency;
        if (change.interrupted) interrupted_w += w;
        for (std::size_t i = 0; i < k; ++i) {
          const double cap = static_cast<double>(config_.capacities[i]);
          const bool fits =
              seen && eff_dist + static_cast<double>(size) <= cap;
          const bool hit = fits && !change.modified;
          if (hit) {
            hits_w[i] += w;
            hit_bytes_w[i] += wb;
            cls_hits_w[i][cls] += w;
            cls_hit_bytes_w[i][cls] += wb;
          } else {
            miss_lat_w[i] += w * fetch_latency;
            if (change.modified && resident_proxy && fits) {
              mod_miss_w[i] += w;
            }
          }
        }
      }
    }
  }

  curve.effective_rate = static_cast<double>(threshold) / kTwoPow64;
  curve.sampled_requests = sampled_refs;
  curve.sampled_documents = peak_tracked;

  for (const auto& [id, st] : docs) fold_doc(st);
  const double n_eff = doc_w2 > 0.0 ? (doc_w * doc_w) / doc_w2 : 0.0;
  const double n_eff_b = doc_wb2 > 0.0 ? (doc_wb * doc_wb) / doc_wb2 : 0.0;
  const double cov_dev =
      true_reqs > 0.0 ? std::abs(req_w / true_reqs - 1.0) : 0.0;
  const double cov_dev_b =
      true_bytes > 0.0 ? std::abs(req_bytes_w / true_bytes - 1.0) : 0.0;

  curve.points.reserve(k);
  curve.results.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    SampledPoint p;
    p.capacity_bytes = config_.capacities[i];
    p.est_requests = req_w;
    p.est_hits = hits_w[i];
    p.est_requested_bytes = req_bytes_w;
    p.est_hit_bytes = hit_bytes_w[i];
    p.hit_rate = req_w > 0.0 ? hits_w[i] / req_w : 0.0;
    p.byte_hit_rate = req_bytes_w > 0.0 ? hit_bytes_w[i] / req_bytes_w : 0.0;
    p.hit_rate_error = error_bound(p.hit_rate, n_eff, cov_dev);
    p.byte_hit_rate_error = error_bound(p.byte_hit_rate, n_eff_b, cov_dev_b);
    curve.points.push_back(p);

    SimResult res;
    res.policy_name = "LRU";
    res.capacity_bytes = config_.capacities[i];
    res.warmup_requests = curve.warmup_requests;
    res.measured_requests = curve.total_requests - curve.warmup_requests;
    res.overall.requests = to_count(req_w);
    res.overall.hits = to_count(hits_w[i]);
    res.overall.requested_bytes = to_count(req_bytes_w);
    res.overall.hit_bytes = to_count(hit_bytes_w[i]);
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      res.per_class[c].requests = to_count(cls_req_w[c]);
      res.per_class[c].hits = to_count(cls_hits_w[i][c]);
      res.per_class[c].requested_bytes = to_count(cls_req_bytes_w[c]);
      res.per_class[c].hit_bytes = to_count(cls_hit_bytes_w[i][c]);
    }
    res.all_miss_latency_ms = all_lat_w;
    res.miss_latency_ms = miss_lat_w[i];
    res.modification_misses = to_count(mod_miss_w[i]);
    res.interrupted_transfers = to_count(interrupted_w);
    curve.results.push_back(std::move(res));
  }
  return curve;
}

}  // namespace webcache::sim
