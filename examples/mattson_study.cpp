// Scenario: size the cache *before* buying it — one pass instead of one
// simulation per candidate size.
//
// Mattson's stack-distance analysis exploits LRU's inclusion property: a
// single traversal of the trace yields the LRU hit rate for EVERY cache
// size at once. This example computes the document-granularity profile,
// predicts byte-capacity LRU hit rates for a ladder of sizes with the
// one-pass sim::StackSweep, then cross-checks each prediction against a
// real per-size simulation.
//
// Usage: ./examples/mattson_study [--scale=0.01] [--seed=42]
#include <algorithm>
#include <iostream>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "synth/generator.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "workload/stack_distance.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const util::Args args(argc, argv);
  const double scale = args.get_double("scale", 0.01);

  synth::GeneratorOptions gen;
  gen.seed = args.get_uint("seed", 42);
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(scale), gen)
          .generate();

  std::cout << "Mattson sizing study over " << t.total_requests()
            << " requests\n\n";

  const workload::StackDistanceProfile docs =
      workload::compute_stack_distances(t);
  std::cout << "Cold-miss floor: "
            << util::fmt_percent(static_cast<double>(docs.cold_misses) /
                                     static_cast<double>(docs.total_references),
                                 1)
            << "% of requests can never hit (first references).\n\n";

  // The one-pass engine is exact for every capacity that holds the largest
  // transfer (smaller caches bypass documents, which breaks inclusion), so
  // the ladder starts there.
  const std::uint64_t floor = sim::StackSweep::max_transfer_size(t);
  std::vector<std::uint64_t> capacities;
  for (const double fraction : {0.01, 0.04, 0.16, 0.40}) {
    capacities.push_back(std::max(
        floor, static_cast<std::uint64_t>(
                   static_cast<double>(t.overall_size_bytes()) * fraction)));
  }
  capacities.erase(std::unique(capacities.begin(), capacities.end()),
                   capacities.end());
  sim::SimulatorOptions options;
  options.warmup_fraction = 0.0;
  const trace::DenseTrace dense = trace::densify(t);
  const std::vector<sim::SimResult> predicted =
      sim::StackSweep(capacities, options).run(dense);

  util::Table table("Predicted (one pass) vs simulated byte-LRU hit rate");
  table.set_header({"Cache size", "Predicted HR", "Simulated HR",
                    "Predicted BHR", "Simulated BHR"});
  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  bool exact = true;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    const sim::SimResult simulated =
        sim::simulate(dense, capacities[i], lru, options);
    exact = exact && simulated.overall.hits == predicted[i].overall.hits &&
            simulated.overall.hit_bytes == predicted[i].overall.hit_bytes;
    table.add_row({util::fmt_bytes(static_cast<double>(capacities[i])),
                   util::fmt_fixed(predicted[i].overall.hit_rate(), 4),
                   util::fmt_fixed(simulated.overall.hit_rate(), 4),
                   util::fmt_fixed(predicted[i].overall.byte_hit_rate(), 4),
                   util::fmt_fixed(simulated.overall.byte_hit_rate(), 4)});
  }
  table.print(std::cout);
  if (!exact) {
    std::cerr << "one-pass prediction differs from the simulation\n";
    return 1;
  }
  std::cout
      << "The one-pass curve is exact for byte-capacity LRU caches that hold\n"
         "the largest transfer — one traversal sizes the cache before the\n"
         "full per-policy sweeps run.\n";
  return 0;
}
