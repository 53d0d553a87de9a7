// Scenario: size the cache *before* buying it.
//
// Mattson's stack-distance analysis exploits LRU's inclusion property: a
// single traversal of the trace yields the unit-size LRU hit rate for
// EVERY cache size at once, and the cold-miss floor no cache size can
// beat. This example computes that document-granularity profile, then
// walks a ladder of byte capacities with one LRU simulation each and checks
// the inclusion property on them: a larger cache never hits less.
//
// Usage: ./examples/mattson_study [--scale=0.01] [--seed=42]
#include <algorithm>
#include <iostream>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
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

  // Inclusion holds for every capacity that holds the largest transfer
  // (smaller caches bypass documents, which breaks it), so the ladder
  // starts there.
  const trace::DenseTrace dense = trace::densify(t);
  std::vector<std::uint64_t> capacities;
  for (const double fraction : {0.01, 0.04, 0.16, 0.40}) {
    capacities.push_back(std::max(
        dense.max_transfer_size(),
        static_cast<std::uint64_t>(
            static_cast<double>(dense.overall_size_bytes()) * fraction)));
  }
  capacities.erase(std::unique(capacities.begin(), capacities.end()),
                   capacities.end());
  sim::SimulatorOptions options;
  options.warmup_fraction = 0.0;

  util::Table table("Byte-capacity LRU hit rate by cache size");
  table.set_header({"Cache size", "Hits", "HR", "BHR"});
  const cache::PolicySpec lru = cache::policy_spec_from_name("LRU");
  bool inclusive = true;
  std::uint64_t previous_hits = 0;
  for (const std::uint64_t capacity : capacities) {
    const sim::SimResult r = sim::simulate(dense, capacity, lru, options);
    inclusive = inclusive && r.overall.hits >= previous_hits;
    previous_hits = r.overall.hits;
    table.add_row({util::fmt_bytes(static_cast<double>(capacity)),
                   util::fmt_count(r.overall.hits),
                   util::fmt_fixed(r.overall.hit_rate(), 4),
                   util::fmt_fixed(r.overall.byte_hit_rate(), 4)});
  }
  table.print(std::cout);
  if (!inclusive) {
    std::cerr << "a larger LRU cache hit less: inclusion is broken\n";
    return 1;
  }
  std::cout
      << "Hits never fall as the cache grows: byte-capacity LRU caches that\n"
         "hold the largest transfer keep the inclusion property, so the\n"
         "curve sizes the cache before the full per-policy sweeps run.\n";
  return 0;
}
