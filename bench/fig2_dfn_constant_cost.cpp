// Regenerates Figure 2: DFN trace, constant cost model — hit rate (left)
// and byte hit rate (right) for LRU, LFU-DA, GDS(1) and GD*(1) over cache
// sizes from ~0.5% to ~40% of overall trace size, broken down into images,
// HTML, multi media and application documents.
//
// Expected shape (Section 4.3):
//  * frequency-based beats recency-based in hit rate: GD*(1) > GDS(1) and
//    LFU-DA > LRU, most visibly for images and application documents;
//  * for multi media documents LRU achieves the best hit rates closely
//    followed by LFU-DA, and GD*(1) performs worse than GDS(1);
//  * LRU/LFU-DA trail badly in hit rate for images and HTML (no size
//    awareness);
//  * for multi media, GDS(1)/GD*(1) byte hit rates collapse, dragging their
//    overall byte hit rate below LRU/LFU-DA.
#include <iostream>

#include "cache/factory.hpp"
#include "common.hpp"
#include "sim/reporter.hpp"
#include "sim/sweep.hpp"
#include "trace/dense_trace.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  std::cout << "=== Figure 2: DFN, constant cost model (scale=" << ctx.scale
            << ") ===\n\n";

  const trace::DenseTrace t =
      trace::densify(ctx.make_trace(synth::WorkloadProfile::DFN()));

  sim::SweepConfig config;
  config.cache_fractions = bench::paper_cache_fractions();
  config.policies = cache::paper_policy_set(cache::CostModelKind::kConstant);
  config.simulator = ctx.simulator_options();
  config.threads = ctx.threads;
  const sim::SweepResult sweep = sim::run_sweep(t, config);

  const std::array<trace::DocumentClass, 4> figure_classes = {
      trace::DocumentClass::kImage, trace::DocumentClass::kHtml,
      trace::DocumentClass::kMultiMedia, trace::DocumentClass::kApplication};

  for (const auto cls : figure_classes) {
    const std::string name(trace::to_string(cls));
    ctx.emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kHitRate,
                                     name + ": hit rate"),
             "fig2_hr_" + name);
    ctx.emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kByteHitRate,
                                     name + ": byte hit rate"),
             "fig2_bhr_" + name);
  }
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kHitRate,
                                     "Overall: hit rate"),
           "fig2_hr_overall");
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kByteHitRate,
                                     "Overall: byte hit rate"),
           "fig2_bhr_overall");
  return 0;
}
