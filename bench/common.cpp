#include "common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace webcache::bench {

BenchContext BenchContext::from_args(int argc, char** argv) {
  const util::Args args(argc, argv);
  BenchContext ctx;
  ctx.scale = args.get_double("scale", ctx.scale);
  ctx.seed = args.get_uint("seed", ctx.seed);
  ctx.warmup_fraction = args.get_double("warmup", ctx.warmup_fraction);
  ctx.csv_dir = args.get("csv", "");
  if (ctx.scale <= 0.0 || ctx.scale > 1.0) {
    throw std::invalid_argument("--scale must be in (0, 1]");
  }
  return ctx;
}

trace::DenseTrace BenchContext::make_trace(
    const synth::WorkloadProfile& profile) const {
  synth::GeneratorOptions opts;
  opts.seed = seed;
  return trace::densify(
      synth::TraceGenerator(profile.scaled(scale), opts).generate());
}

sim::SimulatorOptions BenchContext::simulator_options() const {
  sim::SimulatorOptions opts;
  opts.warmup_fraction = warmup_fraction;
  return opts;
}

void BenchContext::emit(const util::Table& table,
                        const std::string& slug) const {
  table.print(std::cout);
  if (csv_dir.empty()) return;
  const std::string path = csv_dir + "/" + slug + ".csv";
  std::ofstream out(path);
  if (!(out << table.to_csv() << std::flush)) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace webcache::bench
