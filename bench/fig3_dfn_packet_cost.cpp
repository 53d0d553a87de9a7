// Regenerates Figure 3: DFN trace, packet cost model — hit rate (left) and
// byte hit rate (right) for LRU, LFU-DA, GDS(packet) and GD*(packet).
//
// Expected shape (Section 4.3, third experiment):
//  * GD*(packet) outperforms LRU, LFU-DA and GDS(packet) in both hit rate
//    and byte hit rate;
//  * clear hit-rate advantage for images, HTML and application documents;
//  * significantly higher byte hit rates for images, HTML and multi media;
//  * compared with GD*(1) (Figure 2): lower hit rates for images and
//    application documents, but considerably higher byte hit rates for
//    HTML, multi media and application documents.
#include <iostream>

#include "cache/factory.hpp"
#include "common.hpp"
#include "sim/reporter.hpp"
#include "sim/sweep.hpp"
#include "trace/dense_trace.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  std::cout << "=== Figure 3: DFN, packet cost model (scale=" << ctx.scale
            << ") ===\n\n";

  const trace::DenseTrace t =
      trace::densify(ctx.make_trace(synth::WorkloadProfile::DFN()));

  sim::SweepConfig config;
  config.cache_fractions = bench::paper_cache_fractions();
  config.policies = cache::paper_policy_set(cache::CostModelKind::kPacket);
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
             "fig3_hr_" + name);
    ctx.emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kByteHitRate,
                                     name + ": byte hit rate"),
             "fig3_bhr_" + name);
  }
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kHitRate,
                                     "Overall: hit rate"),
           "fig3_hr_overall");
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kByteHitRate,
                                     "Overall: byte hit rate"),
           "fig3_bhr_overall");
  return 0;
}
