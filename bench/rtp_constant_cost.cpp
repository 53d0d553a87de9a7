// Regenerates the Section 4.4 experiment: RTP trace under the constant
// cost model (the paper reports this as a textual summary; we print the
// full Figure-2-style panels).
//
// Expected shape: the same qualitative ranking as the DFN trace (GD*(1)
// closely followed by GDS(1) beats LRU/LFU-DA in hit rate for images, HTML
// and application; LRU/LFU-DA clearly better for multi media in both
// metrics) but with a different y-axis scale: hit rates up to ~0.5 for
// image and application documents, byte hit rates up to ~0.3.
#include <iostream>

#include "cache/factory.hpp"
#include "common.hpp"
#include "sim/reporter.hpp"
#include "sim/sweep.hpp"
#include "trace/dense_trace.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  std::cout << "=== Section 4.4: RTP, constant cost model (scale=" << ctx.scale
            << ") ===\n\n";

  const trace::DenseTrace t =
      trace::densify(ctx.make_trace(synth::WorkloadProfile::RTP()));

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
             "rtp_cc_hr_" + name);
    ctx.emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kByteHitRate,
                                     name + ": byte hit rate"),
             "rtp_cc_bhr_" + name);
  }
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kHitRate,
                                     "Overall: hit rate"),
           "rtp_cc_hr_overall");
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kByteHitRate,
                                     "Overall: byte hit rate"),
           "rtp_cc_bhr_overall");
  return 0;
}
