// Regenerates the Section 4.4 experiment: RTP trace under the packet cost
// model.
//
// Expected shape: GD*(packet)'s advantages diminish relative to the DFN
// trace — its hit-rate lead over the other schemes shrinks for images,
// HTML and application documents, it no longer wins the multimedia hit
// rate, and GDS(packet) matches or beats it in byte hit rate for HTML,
// multi media and application documents. Hit rates reach ~0.5 and byte hit
// rates ~0.4. The cause (Section 4.4): the RTP trace's smaller popularity
// slope alpha (many equally popular documents -> false frequency
// decisions) and larger per-type betas for HTML/multimedia/application.
#include <iostream>

#include "cache/factory.hpp"
#include "common.hpp"
#include "sim/reporter.hpp"
#include "sim/sweep.hpp"
#include "trace/dense_trace.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  std::cout << "=== Section 4.4: RTP, packet cost model (scale=" << ctx.scale
            << ") ===\n\n";

  const trace::DenseTrace t =
      trace::densify(ctx.make_trace(synth::WorkloadProfile::RTP()));

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
             "rtp_pc_hr_" + name);
    ctx.emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kByteHitRate,
                                     name + ": byte hit rate"),
             "rtp_pc_bhr_" + name);
  }
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kHitRate,
                                     "Overall: hit rate"),
           "rtp_pc_hr_overall");
  ctx.emit(sim::render_sweep_overall(sweep, sim::Metric::kByteHitRate,
                                     "Overall: byte hit rate"),
           "rtp_pc_bhr_overall");
  return 0;
}
