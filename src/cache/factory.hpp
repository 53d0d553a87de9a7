// Policy construction by specification or by the paper's display names.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "cache/cost_model.hpp"
#include "cache/policy.hpp"

namespace webcache::cache {

enum class PolicyKind {
  kLru,
  kFifo,
  kSize,
  kLfu,
  kLfuDa,
  kGds,
  kGdsf,
  kGdStar,
  kLruThreshold,
  kLruMin,
  kLruK,
  kGdStarPerClass,
  kRandom,
  kClock,
  kDelayClock,
  kProbLru,
  kDelayLru,
  kBatchPromotion,
  /// The clairvoyant bound (OptPolicy, cache/greedy_dual.hpp). Its oracle
  /// is built from the trace, so only run_sweep constructs it; make_policy
  /// rejects it.
  kOpt,
};

struct PolicySpec {
  PolicyKind kind = PolicyKind::kLru;
  /// Meaningful for the GDS family only.
  CostModelKind cost_model = CostModelKind::kConstant;
  /// GD* only: disable the online estimator and pin beta (the name's
  /// `:beta=<x>` key).
  std::optional<double> fixed_beta;
  /// LRU-Threshold only: the admission threshold in bytes (> 0). The
  /// policy carries it as its admission_limit(), so every Cache built from
  /// the spec enforces it.
  std::uint64_t admission_threshold_bytes = 512 * 1024;
  /// RANDOM / PROB-LRU: seed for the policy's private draw stream. Not
  /// part of the display name, so two seeds of the same policy report the
  /// same scheme in result tables.
  std::uint64_t random_seed = 1;
  /// DELAY-CLOCK: reference-counter cap k (CLOCK is the k=1 special case).
  std::uint32_t clock_counter_max = 2;
  /// PROB-LRU: per-hit promotion probability p in (0, 1].
  double promote_probability = 0.5;
  /// DELAY-LRU: minimum requests between promotions of one object.
  std::uint64_t promote_interval = 16;
  /// BATCH-LRU: queued hits per promotion flush.
  std::uint64_t promotion_batch = 64;
};

std::unique_ptr<ReplacementPolicy> make_policy(const PolicySpec& spec);

/// Parses the paper's names: "LRU", "LFU-DA", "GDS(1)", "GDS(packet)",
/// "GD*(1)", "GD*(packet)", plus the baselines "FIFO", "SIZE", "LFU",
/// "GDSF(1)", "GDSF(packet)", "LRU-MIN", "LRU-2", "LRU-THOLD(<bytes>)" and
/// "OPT". GD* takes a fixed exponent as "GD*(1):beta=0.5".
///
/// The lazy-promotion family uses `base[:key=value,...]` syntax with a
/// case-insensitive base name: "RANDOM" (optional `seed=<n>`), "CLOCK",
/// "DELAY-CLOCK" (`k=<n>`), "PROB-LRU" (`p=<x>`, optional `seed=<n>`),
/// "DELAY-LRU" (`k=<n>`) and "BATCH-LRU" (`batch=<n>`), e.g.
/// "prob-lru:p=0.1" or "DELAY-CLOCK:k=8". Unknown keys (`beta` on anything
/// but GD*, too) and malformed values are rejected with the policy and
/// parameter named in the error.
///
/// Throws std::invalid_argument on anything else.
PolicySpec policy_spec_from_name(std::string_view name);

std::unique_ptr<ReplacementPolicy> make_policy(std::string_view name);

/// The paper's four schemes under the given cost model, in presentation
/// order: LRU, LFU-DA, GDS(model), GD*(model).
std::vector<PolicySpec> paper_policy_set(CostModelKind cost_model);

}  // namespace webcache::cache
