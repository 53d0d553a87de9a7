// Extension benchmark: the paper's opening conjecture, tested.
//
// "We conjecture that in future workloads the percentage of requests to
//  [multi media and application] documents will be substantially larger
//  than in current request streams ... Thus, it is important to investigate
//  the impact of web document types on the performance of web cache
//  replacement schemes." (Section 1)
//
// This bench constructs those future workloads by scaling the DFN profile's
// multi-media + application shares by 1x (today), 2x, 5x and 10x, and
// re-runs the paper's four schemes under both cost models. Watch the
// GD*(1)/GDS(1) byte-hit-rate penalty grow with the multimedia share and
// the packet-cost variants take over — quantifying exactly why the paper
// says the document-type breakdown matters for future cache design.
//
// A binary rather than a script line because its traces come from shifted
// profiles (synth::future_workload), which `webcache generate` cannot make.
#include <iostream>

#include "cache/factory.hpp"
#include "common.hpp"
#include "synth/mix_shift.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const double cache_fraction = args.get_double("cache-fraction", 0.08);

  std::cout << "=== Extension: future workloads (DFN base, mm/app shares "
               "scaled; scale="
            << ctx.scale << ", cache " << cache_fraction * 100
            << "% of trace) ===\n\n";

  for (const double growth : {1.0, 2.0, 5.0, 10.0}) {
    const synth::WorkloadProfile profile =
        growth == 1.0 ? synth::WorkloadProfile::DFN()
                      : synth::future_workload(synth::WorkloadProfile::DFN(),
                                               growth);
    const trace::DenseTrace t = ctx.make_trace(profile);
    const auto capacity = static_cast<std::uint64_t>(
        static_cast<double>(t.overall_size_bytes()) * cache_fraction);

    const auto mm_share =
        [&] {
          std::uint64_t mm = 0, total = 0;
          for (const auto& r : t.records) {
            total += r.transfer_size;
            if (r.doc_class == trace::DocumentClass::kMultiMedia ||
                r.doc_class == trace::DocumentClass::kApplication) {
              mm += r.transfer_size;
            }
          }
          return static_cast<double>(mm) / static_cast<double>(total);
        }();

    util::Table table("mm/app growth x" + util::fmt_fixed(growth, 0) +
                      "  (mm+app = " + util::fmt_percent(mm_share, 1) +
                      "% of requested bytes)");
    table.set_header({"Policy", "HR", "BHR", "MM HR", "MM BHR"});
    for (const char* name : {"LRU", "LFU-DA", "GDS(1)", "GD*(1)",
                             "GDS(packet)", "GD*(packet)"}) {
      const sim::SimResult r = sim::simulate(
          t, capacity, cache::policy_spec_from_name(name),
          ctx.simulator_options());
      const auto& mm = r.of(trace::DocumentClass::kMultiMedia);
      table.add_row({r.policy_name, util::fmt_fixed(r.overall.hit_rate(), 4),
                     util::fmt_fixed(r.overall.byte_hit_rate(), 4),
                     util::fmt_fixed(mm.hit_rate(), 4),
                     util::fmt_fixed(mm.byte_hit_rate(), 4)});
    }
    ctx.emit(table, "ext_future_x" + util::fmt_fixed(growth, 0));
    std::cout << '\n';
  }
  return 0;
}
