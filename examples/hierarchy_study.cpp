// Scenario: design a campus-to-backbone caching hierarchy.
//
// Four institutional proxies (constant-cost GD*, per the paper's guidance
// for hit-rate-oriented edges) feed one backbone proxy. The study sweeps
// the split of a fixed total byte budget between the two levels and
// reports where origin traffic is minimized — a question neither level's
// isolated evaluation (the paper's Figures 2/3) can answer.
//
// Usage: ./examples/hierarchy_study [--scale=0.01] [--seed=42] [--edges=4]
#include <iostream>

#include "sim/hierarchy.hpp"
#include "synth/generator.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const util::Args args(argc, argv);
  const double scale = args.get_double("scale", 0.01);
  const auto edges = static_cast<std::uint32_t>(args.get_uint("edges", 4));

  synth::GeneratorOptions gen;
  gen.seed = args.get_uint("seed", 42);
  const trace::DenseTrace t = trace::densify(
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(scale), gen)
          .generate(),
      trace::ClientColumn::kLoad);
  const double overall = static_cast<double>(t.overall_size_bytes());
  const double total_budget = overall * 0.10;  // 10% of trace bytes, total

  std::cout << "Hierarchy budget study: " << edges
            << " GD*(1) edges + GD*(packet) root, total budget "
            << util::fmt_bytes(total_budget) << " (10% of trace)\n\n";

  util::Table table("Edge share of the total byte budget");
  table.set_header({"Edge share", "Edge HR", "Root HR", "Combined HR",
                    "Combined BHR", "Origin traffic"});
  for (const double edge_share : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    sim::HierarchyConfig config;
    config.edge_count = edges;
    config.edge_capacity_bytes = static_cast<std::uint64_t>(
        std::max(1.0, total_budget * edge_share / edges));
    config.edge_policy = cache::policy_spec_from_name("GD*(1)");
    config.root_capacity_bytes = static_cast<std::uint64_t>(
        std::max(1.0, total_budget * (1.0 - edge_share)));
    config.root_policy = cache::policy_spec_from_name("GD*(packet)");

    const sim::HierarchyResult r = sim::simulate_hierarchy(t, config);
    table.add_row({util::fmt_percent(edge_share, 0) + "%",
                   util::fmt_fixed(r.edge_hit_rate(), 4),
                   util::fmt_fixed(r.root_hit_rate(), 4),
                   util::fmt_fixed(r.combined_hit_rate(), 4),
                   util::fmt_fixed(r.combined_byte_hit_rate(), 4),
                   util::fmt_percent(r.origin_traffic_fraction(), 1) + "%"});
  }
  table.print(std::cout);
  std::cout
      << "Edge capacity lowers user latency (edge hit rate) but fragments\n"
         "the byte budget; the origin-traffic column shows what the\n"
         "backbone pays for it.\n";
  return 0;
}
