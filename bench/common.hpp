// Shared infrastructure for the study binaries that no `webcache` command
// can express (ext_partitioned_cache, ext_future_workload,
// ext_per_class_beta).
//
// Every one accepts:
//   --scale=<f>    trace scale relative to the paper's full trace sizes
//                  (default 0.02: ~134k requests for DFN, regenerates every
//                  figure in seconds; 1.0 = the paper's full 6.7M requests)
//   --seed=<n>     RNG seed (default 42)
//   --csv=<dir>    also write each table as CSV into the directory
//   --warmup=<f>   warm-up fraction (default 0.10, as in the paper)
#pragma once

#include <string>

#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace webcache::bench {

struct BenchContext {
  double scale = 0.02;
  std::uint64_t seed = 42;
  double warmup_fraction = 0.10;
  std::string csv_dir;  // empty = no CSV output

  static BenchContext from_args(int argc, char** argv);

  /// Generates the profile at the configured scale, densified for the
  /// dense replay overloads.
  trace::DenseTrace make_trace(const synth::WorkloadProfile& profile) const;

  sim::SimulatorOptions simulator_options() const;

  /// Prints the table to stdout and, when --csv is set, writes
  /// <csv_dir>/<slug>.csv; a CSV that cannot be written exits 1 naming
  /// its path.
  void emit(const util::Table& table, const std::string& slug) const;
};

}  // namespace webcache::bench
