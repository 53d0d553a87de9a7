#include "sim/replication.hpp"

#include <cmath>
#include <stdexcept>

#include "synth/generator.hpp"

namespace webcache::sim {

double MetricSummary::ci95_half_width() const {
  if (stats.count() < 2) return 0.0;
  return 1.96 * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
}

bool clearly_separated(const MetricSummary& a, const MetricSummary& b) {
  return std::abs(a.mean() - b.mean()) >
         a.ci95_half_width() + b.ci95_half_width();
}

std::vector<ReplicatedResult> run_replicated(
    const synth::WorkloadProfile& profile,
    const std::vector<cache::PolicySpec>& policies,
    const ReplicationConfig& config) {
  if (config.replications == 0) {
    throw std::invalid_argument("run_replicated: need at least one replica");
  }
  if (policies.empty()) {
    throw std::invalid_argument("run_replicated: no policies");
  }
  // Checked before the first replica is generated; each replica's overall
  // size is checked again below.
  fraction_bytes("run_replicated: cache fraction", config.cache_fraction, 0);

  std::vector<ReplicatedResult> results(policies.size());

  for (std::uint32_t rep = 0; rep < config.replications; ++rep) {
    synth::GeneratorOptions gen;
    gen.seed = config.base_seed + rep;
    const trace::DenseTrace replica =
        trace::densify(synth::TraceGenerator(profile, gen).generate());
    const auto capacity = static_cast<std::uint64_t>(
        fraction_bytes("run_replicated: cache fraction", config.cache_fraction,
                       replica.overall_size_bytes()));

    for (std::size_t p = 0; p < policies.size(); ++p) {
      const SimResult run =
          simulate(replica, capacity, policies[p], config.simulator);
      ReplicatedResult& agg = results[p];
      agg.policy_name = run.policy_name;
      agg.hit_rate.stats.add(run.overall.hit_rate());
      agg.byte_hit_rate.stats.add(run.overall.byte_hit_rate());
      for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
        agg.class_hit_rate[c].stats.add(run.per_class[c].hit_rate());
        agg.class_byte_hit_rate[c].stats.add(run.per_class[c].byte_hit_rate());
      }
    }
  }
  return results;
}

}  // namespace webcache::sim
