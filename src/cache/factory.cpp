#include "cache/factory.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/greedy_dual.hpp"
#include "cache/list_policy.hpp"
#include "cache/lru_variants.hpp"
#include "cache/random.hpp"

namespace webcache::cache {

std::unique_ptr<ReplacementPolicy> make_policy(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>();
    case PolicyKind::kSize:
      return std::make_unique<SizePolicy>();
    case PolicyKind::kLfu:
      return std::make_unique<LfuPolicy>();
    case PolicyKind::kLfuDa:
      return std::make_unique<LfuDaPolicy>();
    case PolicyKind::kGds:
      return std::make_unique<GdsPolicy>(spec.cost_model);
    case PolicyKind::kGdsf:
      return std::make_unique<GdsfPolicy>(spec.cost_model);
    case PolicyKind::kGdStar:
      return std::make_unique<GdStarPolicy>(spec.cost_model, spec.fixed_beta);
    case PolicyKind::kLruThreshold:
      return std::make_unique<LruThresholdPolicy>(
          AdmissionLimit{spec.admission_threshold_bytes});
    case PolicyKind::kLruMin:
      return std::make_unique<LruMinPolicy>();
    case PolicyKind::kLruK:
      return std::make_unique<LruKPolicy>();
    case PolicyKind::kGdStarPerClass:
      return std::make_unique<GdStarPerClassPolicy>(spec.cost_model);
    case PolicyKind::kRandom:
      return std::make_unique<RandomPolicy>(spec.random_seed);
    case PolicyKind::kClock:
      return std::make_unique<ClockPolicy>();
    case PolicyKind::kDelayClock:
      return std::make_unique<DelayClockPolicy>(spec.clock_counter_max);
    case PolicyKind::kProbLru:
      return std::make_unique<ProbLruPolicy>(spec.promote_probability,
                                             spec.random_seed);
    case PolicyKind::kDelayLru:
      return std::make_unique<DelayLruPolicy>(spec.promote_interval);
    case PolicyKind::kBatchPromotion:
      return std::make_unique<BatchPromotionPolicy>(spec.promotion_batch);
    case PolicyKind::kOpt:
      throw std::invalid_argument(
          "make_policy: OPT needs the whole future request sequence, so it "
          "runs only as a `webcache sweep` policy (or as a cache::OptPolicy "
          "built from the trace)");
  }
  throw std::invalid_argument("make_policy: unknown kind");
}

namespace {

std::string lower_ascii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// `base[:key=value,...]` parameter list of the lazy-promotion family and
// of GD*'s fixed beta.
// Every diagnostic names the policy, the parameter, and the offending
// value so a CLI typo is a one-line fix.
struct ParamList {
  std::string_view policy;  // canonical display base, for error messages
  std::vector<std::pair<std::string, std::string>> items;

  [[noreturn]] void fail(std::string_view key, std::string_view value,
                         std::string_view expected) const {
    throw std::invalid_argument("policy_spec_from_name: " +
                                std::string(policy) + " parameter '" +
                                std::string(key) + "': bad value '" +
                                std::string(value) + "' (expected " +
                                std::string(expected) + ")");
  }

  std::uint64_t take_u64(std::string_view key, std::uint64_t fallback,
                         std::uint64_t min_value) {
    const std::string* raw = take(key);
    if (raw == nullptr) return fallback;
    try {
      // stoull would wrap "-3" around; demand plain digits.
      for (const char c : *raw) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          throw std::invalid_argument("");
        }
      }
      std::size_t used = 0;
      const unsigned long long v = std::stoull(*raw, &used);
      if (used != raw->size() || v < min_value) throw std::invalid_argument("");
      return static_cast<std::uint64_t>(v);
    } catch (const std::exception&) {
      fail(key, *raw, "integer >= " + std::to_string(min_value));
    }
  }

  /// A finite value in (0, max_value]; `expected` describes that range.
  double take_positive(std::string_view key, double fallback,
                       double max_value, std::string_view expected) {
    const std::string* raw = take(key);
    if (raw == nullptr) return fallback;
    try {
      std::size_t used = 0;
      const double v = std::stod(*raw, &used);
      if (used != raw->size() || !std::isfinite(v) || !(v > 0.0) ||
          v > max_value) {
        throw std::invalid_argument("");
      }
      return v;
    } catch (const std::exception&) {
      fail(key, *raw, expected);
    }
  }

  void finish() const {
    if (items.empty()) return;
    throw std::invalid_argument(
        "policy_spec_from_name: " + std::string(policy) +
        ": unknown parameter '" + items.front().first + "'");
  }

 private:
  const std::string* take(std::string_view key) {
    for (auto it = items.begin(); it != items.end(); ++it) {
      if (it->first == key) {
        taken_ = std::move(it->second);
        items.erase(it);
        return &taken_;
      }
    }
    return nullptr;
  }

  std::string taken_;
};

/// Splits the `key=value,...` tail of `policy`'s name; throws on an item
/// that is not key=value.
ParamList split_params(std::string_view policy, std::string_view tail) {
  ParamList params;
  params.policy = policy;
  while (!tail.empty()) {
    const std::size_t comma = tail.find(',');
    const std::string_view item = tail.substr(0, comma);
    tail = comma == std::string_view::npos ? std::string_view{}
                                           : tail.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string_view::npos || eq + 1 == item.size()) {
      throw std::invalid_argument(
          "policy_spec_from_name: " + std::string(policy) +
          ": malformed parameter '" + std::string(item) +
          "' (expected key=value)");
    }
    params.items.emplace_back(lower_ascii(item.substr(0, eq)),
                              std::string(item.substr(eq + 1)));
  }
  return params;
}

/// Matches `name` against a lazy-family base (case-insensitive) and, on a
/// match, splits the `key=value,...` tail. Returns nullopt when the base
/// differs; throws on a matching base with a malformed tail.
std::optional<ParamList> match_lazy(std::string_view name,
                                    std::string_view canonical_base) {
  const std::size_t colon = name.find(':');
  const std::string_view base = name.substr(0, colon);
  if (lower_ascii(base) != lower_ascii(canonical_base)) return std::nullopt;
  return split_params(canonical_base, colon == std::string_view::npos
                                          ? std::string_view{}
                                          : name.substr(colon + 1));
}

/// The lazy-promotion / RANDOM family, `base[:key=value,...]` syntax.
/// Returns false when `name`'s base matches none of the family.
bool parse_lazy_family(std::string_view name, PolicySpec& spec) {
  if (auto p = match_lazy(name, "RANDOM")) {
    spec.kind = PolicyKind::kRandom;
    spec.random_seed = p->take_u64("seed", spec.random_seed, 0);
    p->finish();
  } else if (auto p = match_lazy(name, "CLOCK")) {
    spec.kind = PolicyKind::kClock;
    p->finish();
  } else if (auto p = match_lazy(name, "DELAY-CLOCK")) {
    spec.kind = PolicyKind::kDelayClock;
    spec.clock_counter_max =
        static_cast<std::uint32_t>(p->take_u64("k", spec.clock_counter_max, 1));
    p->finish();
  } else if (auto p = match_lazy(name, "PROB-LRU")) {
    spec.kind = PolicyKind::kProbLru;
    spec.promote_probability = p->take_positive(
        "p", spec.promote_probability, 1.0, "probability in (0, 1]");
    spec.random_seed = p->take_u64("seed", spec.random_seed, 0);
    p->finish();
  } else if (auto p = match_lazy(name, "DELAY-LRU")) {
    spec.kind = PolicyKind::kDelayLru;
    spec.promote_interval = p->take_u64("k", spec.promote_interval, 1);
    p->finish();
  } else if (auto p = match_lazy(name, "BATCH-LRU")) {
    spec.kind = PolicyKind::kBatchPromotion;
    spec.promotion_batch = p->take_u64("batch", spec.promotion_batch, 1);
    p->finish();
  } else {
    return false;
  }
  return true;
}

}  // namespace

PolicySpec policy_spec_from_name(std::string_view name) {
  PolicySpec spec;
  // The cost-model families take an optional `:key=value,...` tail, of
  // which only GD*'s `beta` exists.
  const std::size_t colon = name.find(':');
  const std::string_view base = name.substr(0, colon);
  auto with_cost = [&](PolicyKind kind, std::string_view family) -> bool {
    for (const auto& [suffix, model] :
         {std::pair{"(1)", CostModelKind::kConstant},
          std::pair{"(packet)", CostModelKind::kPacket},
          std::pair{"(latency)", CostModelKind::kLatency}}) {
      if (base != std::string(family) + suffix) continue;
      spec.kind = kind;
      spec.cost_model = model;
      if (colon != std::string_view::npos) {
        ParamList params = split_params(base, name.substr(colon + 1));
        if (kind == PolicyKind::kGdStar) {
          const double beta = params.take_positive(
              "beta", 0.0, HUGE_VAL, "finite number > 0");
          if (beta > 0.0) spec.fixed_beta = beta;
        }
        params.finish();
      }
      return true;
    }
    return false;
  };

  if (name == "LRU") {
    spec.kind = PolicyKind::kLru;
  } else if (name == "OPT") {
    spec.kind = PolicyKind::kOpt;
  } else if (name == "LRU-MIN") {
    spec.kind = PolicyKind::kLruMin;
  } else if (name == "LRU-2") {
    spec.kind = PolicyKind::kLruK;
  } else if (name.rfind("LRU-THOLD(", 0) == 0 && name.back() == ')') {
    spec.kind = PolicyKind::kLruThreshold;
    const std::string digits(name.substr(10, name.size() - 11));
    try {
      std::size_t used = 0;
      const long long bytes = std::stoll(digits, &used);
      if (used != digits.size() || bytes <= 0) {
        throw std::invalid_argument("non-positive or trailing characters");
      }
      spec.admission_threshold_bytes = static_cast<std::uint64_t>(bytes);
    } catch (const std::exception&) {
      throw std::invalid_argument(
          "policy_spec_from_name: bad LRU-THOLD threshold '" + digits + "'");
    }
  } else if (name == "FIFO") {
    spec.kind = PolicyKind::kFifo;
  } else if (name == "SIZE") {
    spec.kind = PolicyKind::kSize;
  } else if (name == "LFU") {
    spec.kind = PolicyKind::kLfu;
  } else if (name == "LFU-DA") {
    spec.kind = PolicyKind::kLfuDa;
  } else if (with_cost(PolicyKind::kGds, "GDS") ||
             with_cost(PolicyKind::kGdsf, "GDSF") ||
             with_cost(PolicyKind::kGdStar, "GD*") ||
             with_cost(PolicyKind::kGdStarPerClass, "GD*C")) {
    // spec filled by with_cost
  } else if (parse_lazy_family(name, spec)) {
    // spec filled by parse_lazy_family
  } else {
    throw std::invalid_argument("policy_spec_from_name: unknown policy '" +
                                std::string(name) + "'");
  }
  return spec;
}

std::unique_ptr<ReplacementPolicy> make_policy(std::string_view name) {
  return make_policy(policy_spec_from_name(name));
}

std::vector<PolicySpec> paper_policy_set(CostModelKind cost_model) {
  std::vector<PolicySpec> specs;
  specs.push_back({PolicyKind::kLru, cost_model, std::nullopt});
  specs.push_back({PolicyKind::kLfuDa, cost_model, std::nullopt});
  specs.push_back({PolicyKind::kGds, cost_model, std::nullopt});
  specs.push_back({PolicyKind::kGdStar, cost_model, std::nullopt});
  return specs;
}

}  // namespace webcache::cache
