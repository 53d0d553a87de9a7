// Extension benchmark: institutional edges + backbone root as one system.
//
// The paper assigns the constant cost model to institutional proxies and
// the packet cost model to backbone proxies, but evaluates each level on
// the same raw trace. Here N institutional GD*(1) edges filter the stream
// before a backbone root — so the root policies compete on the miss stream
// a real upper-level proxy would see. Reported per root policy: root hit
// rate (on forwarded requests), combined system rates, and origin traffic.
#include <iostream>

#include "common.hpp"
#include "sim/hierarchy.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const auto edges = static_cast<std::uint32_t>(args.get_uint("edges", 4));
  const double edge_fraction = args.get_double("edge-fraction", 0.005);
  const double root_fraction = args.get_double("root-fraction", 0.08);

  std::cout << "=== Extension: two-level hierarchy (DFN, scale=" << ctx.scale
            << ", " << edges << " edges x " << edge_fraction * 100
            << "% + root " << root_fraction * 100 << "%) ===\n\n";

  const trace::DenseTrace t =
      trace::densify(ctx.make_trace(synth::WorkloadProfile::DFN()));
  const std::uint64_t overall = t.overall_size_bytes();

  util::Table table("Root policy comparison behind GD*(1) edges");
  table.set_header({"Root policy", "Edge HR", "Root HR", "Combined HR",
                    "Combined BHR", "Origin traffic"});
  for (const char* root_policy :
       {"GD*(packet)", "GDS(packet)", "LFU-DA", "LRU", "GD*(1)"}) {
    sim::HierarchyConfig config;
    config.edge_count = edges;
    config.edge_capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(overall) * edge_fraction);
    config.edge_policy = cache::policy_spec_from_name("GD*(1)");
    config.root_capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(overall) * root_fraction);
    config.root_policy = cache::policy_spec_from_name(root_policy);
    config.simulator = ctx.simulator_options();

    const sim::HierarchyResult r = sim::simulate_hierarchy(t, config);
    table.add_row({root_policy, util::fmt_fixed(r.edge_hit_rate(), 4),
                   util::fmt_fixed(r.root_hit_rate(), 4),
                   util::fmt_fixed(r.combined_hit_rate(), 4),
                   util::fmt_fixed(r.combined_byte_hit_rate(), 4),
                   util::fmt_percent(r.origin_traffic_fraction(), 1) + "%"});
  }
  ctx.emit(table, "ext_hierarchy");

  // Second experiment: strict hierarchy vs the DFN-style sibling mesh.
  util::Table mesh_table(
      "Strict hierarchy vs ICP sibling mesh (GD*(packet) root)");
  mesh_table.set_header({"Topology", "Edge-level HR", "Sibling hits",
                         "Root requests", "Combined HR", "Origin traffic"});
  for (const bool mesh : {false, true}) {
    sim::HierarchyConfig config;
    config.edge_count = edges;
    config.edge_capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(overall) * edge_fraction);
    config.edge_policy = cache::policy_spec_from_name("GD*(1)");
    config.root_capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(overall) * root_fraction);
    config.root_policy = cache::policy_spec_from_name("GD*(packet)");
    config.simulator = ctx.simulator_options();
    config.sibling_cooperation = mesh;

    const sim::HierarchyResult r = sim::simulate_hierarchy(t, config);
    mesh_table.add_row(
        {mesh ? "Sibling mesh (ICP)" : "Strict hierarchy",
         util::fmt_fixed(r.edge_hit_rate(), 4),
         util::fmt_count(r.sibling_hits.hits),
         util::fmt_count(r.root_requests),
         util::fmt_fixed(r.combined_hit_rate(), 4),
         util::fmt_percent(r.origin_traffic_fraction(), 1) + "%"});
  }
  ctx.emit(mesh_table, "ext_hierarchy_mesh");

  std::cout
      << "Reading: the edges strip short-gap re-references, so the root's\n"
         "hit rate sits well below the single-cache figures of Figure 2/3;\n"
         "byte-oriented root policies (packet cost) minimize origin\n"
         "traffic, matching the paper's institutional-vs-backbone framing.\n"
         "Sibling cooperation (the DFN cache-mesh topology the trace comes\n"
         "from) offloads the root without extra capacity.\n";
  return 0;
}
