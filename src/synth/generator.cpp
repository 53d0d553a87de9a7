#include "synth/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/distributions.hpp"
#include "util/count_tree.hpp"

namespace webcache::synth {

namespace {

/// Mutable per-class generation state.
struct ClassState {
  const ClassProfile* profile = nullptr;

  // Per-doc unused reference budget: the population's reference counts,
  // moved in. The popularity source draws from it. Engaged iff the class
  // has documents.
  std::optional<util::CountTree> remaining;
  std::vector<std::uint64_t> current_size; // population sizes; mutate on
                                           // modification
  std::vector<bool> seen;                  // first request vs re-reference
  std::unique_ptr<util::PowerLawGapDistribution> gap_dist;

  // History ring of recently emitted document indices.
  std::vector<std::uint32_t> history;
  std::size_t history_head = 0;   // next write slot
  std::uint64_t emitted = 0;      // total class requests emitted

  bool empty() const { return !remaining; }
  std::uint64_t requests_left() const {
    return remaining ? remaining->total() : 0;
  }

  /// Takes over the population's arrays; an empty population leaves the
  /// state empty.
  void init(ClassPopulation population, std::size_t history_capacity) {
    const std::size_t n = population.document_count();
    if (n == 0) return;
    remaining.emplace(std::move(population.reference_counts));
    current_size = std::move(population.sizes);
    seen.assign(n, false);
    const std::size_t cap = std::min<std::size_t>(history_capacity, n * 4 + 16);
    history.assign(cap, 0);
    gap_dist = std::make_unique<util::PowerLawGapDistribution>(
        cap, std::max(0.05, profile->beta));
  }

  std::uint64_t history_length() const {
    return std::min<std::uint64_t>(emitted, history.size());
  }

  std::uint32_t history_at_gap(std::uint64_t gap) const {
    // gap = 1 means the most recently emitted document.
    const std::size_t cap = history.size();
    const std::size_t idx = (history_head + cap - (gap % cap)) % cap;
    return history[idx];
  }

  void push_history(std::uint32_t doc) {
    history[history_head] = doc;
    history_head = (history_head + 1) % history.size();
    ++emitted;
  }

  /// Picks the document for the next class request and consumes one unit of
  /// its reference budget.
  std::uint32_t pick(util::Rng& rng) {
    std::optional<std::uint32_t> chosen;
    if (history_length() > 0 && rng.chance(profile->correlation_probability)) {
      std::uint64_t gap = gap_dist->sample(rng);
      gap = std::min<std::uint64_t>(gap, history_length());
      const std::uint32_t candidate = history_at_gap(gap);
      if (remaining->count(candidate) > 0) chosen = candidate;
    }
    if (!chosen) {
      // The budgets are integers, so a prefix sum is <= u exactly when it
      // is <= floor(u): the draw picks the document whose cumulative range
      // holds u.
      const double u =
          rng.uniform() * static_cast<double>(remaining->total());
      chosen = static_cast<std::uint32_t>(
          remaining->find(static_cast<std::uint64_t>(u)));
    }
    remaining->decrement(*chosen);
    push_history(*chosen);
    return *chosen;
  }
};

/// The shared per-request emit body: picks a document, applies the
/// modification / interarrival / interrupt rules, and returns the request.
/// Both generate() and the streaming generator call this with their own RNG
/// substreams; the statement order is exactly the one generate() always had,
/// so the materialized output (and its golden fixtures) is unchanged.
trace::Request next_request(ClassState& st, double mean_interarrival_ms,
                            const util::ZipfDistribution& client_dist,
                            util::Rng& rng_requests, util::Rng& rng_time,
                            util::Rng& rng_clients, double& clock_ms) {
  const ClassProfile& cp = *st.profile;
  const std::uint32_t doc = st.pick(rng_requests);

  // Document modification: only meaningful on a re-reference; the origin
  // changed the body, size drifts by < 5% (paper's modification rule).
  if (st.seen[doc] && rng_requests.chance(cp.modification_probability)) {
    const double factor = 1.0 + rng_requests.uniform(-0.049, 0.049);
    const auto perturbed = static_cast<std::uint64_t>(std::max(
        64.0, std::round(static_cast<double>(st.current_size[doc]) * factor)));
    // Guarantee an actual change so the simulator sees a modification.
    st.current_size[doc] =
        perturbed == st.current_size[doc] ? perturbed + 1 : perturbed;
  }
  st.seen[doc] = true;

  clock_ms += rng_time.exponential(1.0 / mean_interarrival_ms);

  trace::Request r;
  r.timestamp_ms = static_cast<std::uint64_t>(clock_ms);
  r.document = document_id(cp.doc_class, doc);
  r.client = static_cast<std::uint32_t>(client_dist.sample(rng_clients));
  r.doc_class = cp.doc_class;
  r.status = 200;
  r.document_size = st.current_size[doc];
  r.transfer_size = r.document_size;
  const double p_int =
      effective_interrupt_probability(cp.interrupt_probability, r.document_size);
  if (rng_requests.chance(p_int)) {
    const double frac = rng_requests.uniform(0.05, 0.90);
    r.transfer_size = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                static_cast<double>(r.document_size) * frac));
  }
  return r;
}

/// Streaming counterpart of generate(): identical population construction
/// and per-request body, but the class interleaving is drawn online without
/// replacement (each request picks a class with probability proportional to
/// its remaining request budget — the sequential view of the token shuffle)
/// instead of materializing and shuffling one token per request. Memory is
/// O(distinct documents + chunk), independent of total_requests, which is
/// what makes 10^8-10^9-request workloads drivable. Chunk size never enters
/// any draw, so the stream is chunk-size invariant by construction.
class GeneratorStream final : public trace::RequestStream {
 public:
  GeneratorStream(const WorkloadProfile& profile, GeneratorOptions options,
                  std::size_t chunk_records)
      : profile_(profile),
        options_(options),
        chunk_records_(chunk_records == 0 ? std::size_t{1} << 16
                                          : chunk_records) {
    init();
  }

  std::uint64_t total_requests() const override { return total_; }

  std::span<const trace::Request> next_chunk() override {
    if (total_remaining_ == 0) return {};
    buffer_.clear();
    const std::uint64_t n =
        std::min<std::uint64_t>(chunk_records_, total_remaining_);
    buffer_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::size_t token = draw_class();
      buffer_.push_back(next_request(states_[token],
                                     profile_.mean_interarrival_ms,
                                     *client_dist_, *rng_requests_, *rng_time_,
                                     *rng_clients_, clock_ms_));
    }
    return {buffer_.data(), buffer_.size()};
  }

  void reset() override { init(); }

 private:
  /// (Re)builds the whole generation state from (profile, seed). Fork order
  /// matches generate() so the substreams stay comparable across modes.
  void init() {
    util::Rng master(options_.seed);
    util::Rng rng_population = master.fork("population");
    rng_tokens_.emplace(master.fork("tokens"));
    rng_requests_.emplace(master.fork("requests"));
    rng_time_.emplace(master.fork("time"));

    std::uint64_t docs_assigned = 0;
    std::uint64_t reqs_assigned = 0;
    total_ = 0;
    for (std::size_t ci = 0; ci < trace::kDocumentClassCount; ++ci) {
      const ClassProfile& cp = profile_.classes[ci];
      states_[ci] = ClassState{};
      states_[ci].profile = &profile_.classes[ci];
      std::uint64_t docs = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(profile_.distinct_documents) *
          cp.distinct_fraction));
      std::uint64_t reqs = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(profile_.total_requests) * cp.request_fraction));
      if (ci + 1 == trace::kDocumentClassCount) {
        docs = profile_.distinct_documents - docs_assigned;
        reqs = profile_.total_requests - reqs_assigned;
      }
      docs_assigned += docs;
      reqs_assigned += reqs;
      if (docs > 0 && reqs < docs) reqs = docs;
      states_[ci].init(build_population(cp, docs, reqs, rng_population),
                       options_.history_capacity);
      remaining_reqs_[ci] = states_[ci].requests_left();
      total_ += remaining_reqs_[ci];
    }
    total_remaining_ = total_;

    std::uint32_t client_count = options_.clients;
    if (client_count == 0) {
      client_count = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(16, profile_.total_requests / 2000));
    }
    client_dist_.emplace(client_count, 1.0);
    rng_clients_.emplace(master.fork("clients"));
    clock_ms_ = 0.0;
  }

  /// Online without-replacement class draw: the next token is class ci with
  /// probability remaining_reqs_[ci] / total_remaining_.
  std::size_t draw_class() {
    const double u =
        rng_tokens_->uniform() * static_cast<double>(total_remaining_);
    double acc = 0.0;
    std::size_t token = trace::kDocumentClassCount;
    for (std::size_t ci = 0; ci < trace::kDocumentClassCount; ++ci) {
      acc += static_cast<double>(remaining_reqs_[ci]);
      if (u < acc && remaining_reqs_[ci] > 0) {
        token = ci;
        break;
      }
    }
    if (token == trace::kDocumentClassCount) {
      // Floating-point edge (u landed on the accumulated total): take the
      // last class that still has budget.
      for (std::size_t ci = trace::kDocumentClassCount; ci-- > 0;) {
        if (remaining_reqs_[ci] > 0) {
          token = ci;
          break;
        }
      }
    }
    --remaining_reqs_[token];
    --total_remaining_;
    return token;
  }

  WorkloadProfile profile_;
  GeneratorOptions options_;
  std::size_t chunk_records_;

  std::array<ClassState, trace::kDocumentClassCount> states_;
  std::array<std::uint64_t, trace::kDocumentClassCount> remaining_reqs_{};
  std::uint64_t total_ = 0;
  std::uint64_t total_remaining_ = 0;

  std::optional<util::Rng> rng_tokens_;
  std::optional<util::Rng> rng_requests_;
  std::optional<util::Rng> rng_time_;
  std::optional<util::Rng> rng_clients_;
  std::optional<util::ZipfDistribution> client_dist_;
  double clock_ms_ = 0.0;

  std::vector<trace::Request> buffer_;
};

}  // namespace

double effective_interrupt_probability(double base_probability,
                                       std::uint64_t size) {
  constexpr double kRampBytes = 512.0 * 1024.0;
  return base_probability *
         std::min(1.0, static_cast<double>(size) / kRampBytes);
}

TraceGenerator::TraceGenerator(WorkloadProfile profile,
                               GeneratorOptions options)
    : profile_(std::move(profile)), options_(options) {
  profile_.validate();
  if (options_.history_capacity == 0) {
    throw std::invalid_argument("TraceGenerator: history_capacity must be > 0");
  }
}

trace::Trace TraceGenerator::generate() {
  util::Rng master(options_.seed);
  util::Rng rng_population = master.fork("population");
  util::Rng rng_tokens = master.fork("tokens");
  util::Rng rng_requests = master.fork("requests");
  util::Rng rng_time = master.fork("time");

  // ---- build per-class populations with exact budgets ----
  std::array<ClassState, trace::kDocumentClassCount> states;
  std::uint64_t docs_assigned = 0;
  std::uint64_t reqs_assigned = 0;
  for (std::size_t ci = 0; ci < trace::kDocumentClassCount; ++ci) {
    const ClassProfile& cp = profile_.classes[ci];
    states[ci].profile = &cp;
    std::uint64_t docs = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(profile_.distinct_documents) * cp.distinct_fraction));
    std::uint64_t reqs = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(profile_.total_requests) * cp.request_fraction));
    // The last class absorbs rounding so totals match the profile exactly.
    if (ci + 1 == trace::kDocumentClassCount) {
      docs = profile_.distinct_documents - docs_assigned;
      reqs = profile_.total_requests - reqs_assigned;
    }
    docs_assigned += docs;
    reqs_assigned += reqs;
    if (docs > 0 && reqs < docs) reqs = docs;  // generator invariant
    states[ci].init(build_population(cp, docs, reqs, rng_population),
                    options_.history_capacity);
  }

  // ---- exact class interleaving: one token per request, shuffled ----
  std::vector<std::uint8_t> tokens;
  tokens.reserve(reqs_assigned);
  for (std::size_t ci = 0; ci < trace::kDocumentClassCount; ++ci) {
    tokens.insert(tokens.end(), states[ci].requests_left(),
                  static_cast<std::uint8_t>(ci));
  }
  std::shuffle(tokens.begin(), tokens.end(), rng_tokens.engine());

  // ---- client population ----
  std::uint32_t client_count = options_.clients;
  if (client_count == 0) {
    client_count = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(16, profile_.total_requests / 2000));
  }
  const util::ZipfDistribution client_dist(client_count, 1.0);
  util::Rng rng_clients = master.fork("clients");

  // ---- emit the request stream ----
  trace::Trace trace_out;
  trace_out.requests.reserve(tokens.size());
  double clock_ms = 0.0;
  for (const std::uint8_t token : tokens) {
    trace_out.requests.push_back(
        next_request(states[token], profile_.mean_interarrival_ms, client_dist,
                     rng_requests, rng_time, rng_clients, clock_ms));
  }
  return trace_out;
}

std::unique_ptr<trace::RequestStream> TraceGenerator::stream(
    std::size_t chunk_records) const {
  return std::make_unique<GeneratorStream>(profile_, options_, chunk_records);
}

}  // namespace webcache::synth
