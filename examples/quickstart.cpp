// Quickstart: the 60-second tour of the library's public API.
//
//  1. Generate a synthetic workload calibrated to the paper's DFN trace.
//  2. Run the trace-driven simulator and compare two replacement schemes.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"

int main() {
  using namespace webcache;

  // ---- 1. A synthetic DFN-like trace (0.2% of the paper's size). --------
  synth::GeneratorOptions gen;
  gen.seed = 42;
  const trace::Trace trace =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002), gen)
          .generate();
  std::cout << "Generated " << trace.total_requests() << " requests to "
            << trace.distinct_documents() << " documents ("
            << util::fmt_bytes(static_cast<double>(trace.requested_bytes()))
            << " requested)\n\n";

  // ---- 2. Simulate LRU vs GD*(1) at 4% of the trace's total bytes. ------
  const std::uint64_t capacity = trace.overall_size_bytes() / 25;
  for (const char* policy : {"LRU", "GD*(1)"}) {
    const sim::SimResult r = sim::simulate(
        trace, capacity, cache::policy_spec_from_name(policy), {});
    std::cout << r.policy_name << ": hit rate "
              << util::fmt_fixed(r.overall.hit_rate(), 3) << ", byte hit rate "
              << util::fmt_fixed(r.overall.byte_hit_rate(), 3) << "\n";
  }
  std::cout << "\nExpected: GD*(1) clearly ahead in hit rate, LRU ahead in "
               "byte hit rate — the paper's central trade-off.\n";
  return 0;
}
