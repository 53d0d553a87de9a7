// Extension benchmark: per-class beta estimation — testing the paper's own
// diagnosis.
//
// Section 4.4 attributes GD*(packet)'s weaker RTP results to the overall
// temporal-correlation slope being "dominated by the slope of image
// documents", mis-aging HTML, multi media and application documents whose
// per-type betas are much larger. GD*C replaces the single online beta
// with one estimator per document class. It is the same GreedyDualPolicy
// as GD* (cache/greedy_dual.hpp) with another value function, so the two
// differ in nothing but the exponent each document's utility takes.
//
// If the diagnosis is right, GD*C(packet) should recover byte hit rate on
// the RTP-like workload relative to GD*(packet), with little or no cost on
// the DFN-like workload where one class dominates anyway.
//
// A binary rather than a script line because it reads GD*C's learned
// per-class beta, which obs::Snapshot (one beta per window) does not carry.
#include <iostream>

#include "cache/factory.hpp"
#include "cache/greedy_dual.hpp"
#include "common.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const double cache_fraction = args.get_double("cache-fraction", 0.04);

  std::cout << "=== Extension: global vs per-class beta for GD* (scale="
            << ctx.scale << ", cache " << cache_fraction * 100
            << "% of trace) ===\n\n";

  for (const auto& profile :
       {synth::WorkloadProfile::DFN(), synth::WorkloadProfile::RTP()}) {
    const trace::DenseTrace t = ctx.make_trace(profile);
    const auto capacity = static_cast<std::uint64_t>(
        static_cast<double>(t.overall_size_bytes()) * cache_fraction);

    util::Table table(profile.name + ": one beta vs beta per class");
    table.set_header({"Policy", "HR", "BHR", "HTML BHR", "MM BHR",
                      "App BHR"});
    for (const char* name : {"GDS(packet)", "GD*(packet)", "GD*C(packet)",
                             "GD*(1)", "GD*C(1)"}) {
      const sim::SimResult r = sim::simulate(
          t, capacity, cache::policy_spec_from_name(name),
          ctx.simulator_options());
      table.add_row(
          {r.policy_name, util::fmt_fixed(r.overall.hit_rate(), 4),
           util::fmt_fixed(r.overall.byte_hit_rate(), 4),
           util::fmt_fixed(r.of(trace::DocumentClass::kHtml).byte_hit_rate(),
                           4),
           util::fmt_fixed(
               r.of(trace::DocumentClass::kMultiMedia).byte_hit_rate(), 4),
           util::fmt_fixed(
               r.of(trace::DocumentClass::kApplication).byte_hit_rate(), 4)});
    }
    ctx.emit(table, "ext_per_class_beta_" + profile.name);

    // The learned per-class exponents, for the record. The cache owns the
    // policy, so it must outlive the beta readout below.
    auto policy = std::make_unique<cache::GdStarPerClassPolicy>(
        cache::CostModelKind::kPacket);
    const cache::GdStarPerClassPolicy* probe = policy.get();
    cache::Cache cache(capacity, std::move(policy));
    sim::simulate(t, cache, ctx.simulator_options());
    util::Table betas(profile.name + ": learned per-class beta (GD*C)");
    std::vector<std::string> header = {""};
    std::vector<std::string> row = {"beta"};
    for (const auto cls : trace::kAllDocumentClasses) {
      header.emplace_back(trace::to_string(cls));
      row.push_back(util::fmt_fixed(probe->beta(cls), 2));
    }
    betas.set_header(header);
    betas.add_row(row);
    ctx.emit(betas, "ext_per_class_beta_learned_" + profile.name);
    std::cout << '\n';
  }
  return 0;
}
