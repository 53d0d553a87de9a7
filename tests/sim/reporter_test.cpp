#include "sim/reporter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "synth/generator.hpp"

namespace webcache::sim {
namespace {

SweepResult small_sweep() {
  synth::GeneratorOptions gen_opts;
  gen_opts.seed = 5;
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.001),
                            gen_opts)
          .generate();
  SweepConfig config;
  config.cache_fractions = {0.01, 0.05};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kConstant);
  return run_sweep(t, config);
}

TEST(Reporter, SweepPanelHeaderHasAllPolicies) {
  const SweepResult sweep = small_sweep();
  const util::Table table = render_sweep_panel(
      sweep, trace::DocumentClass::kImage, Metric::kHitRate, "Images HR");
  const std::string text = table.to_text();
  for (const char* name : {"LRU", "LFU-DA", "GDS(1)", "GD*(1)"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("Cache (MB)"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);  // one per cache size
}

TEST(Reporter, OverallPanelRenders) {
  const SweepResult sweep = small_sweep();
  const util::Table hr =
      render_sweep_overall(sweep, Metric::kHitRate, "Overall HR");
  const util::Table bhr =
      render_sweep_overall(sweep, Metric::kByteHitRate, "Overall BHR");
  EXPECT_EQ(hr.rows(), 2u);
  EXPECT_EQ(bhr.rows(), 2u);
  EXPECT_NE(hr.to_text(), bhr.to_text());
}

TEST(Reporter, OccupancySeriesRendersClassColumns) {
  synth::GeneratorOptions gen_opts;
  gen_opts.seed = 5;
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.001),
                            gen_opts)
          .generate();
  cache::PolicySpec spec;
  spec.kind = cache::PolicyKind::kGds;
  obs::RecordingSink sink(t.total_requests() / 8);
  simulate(trace::densify(t), 1 << 20, spec, SimulatorOptions{}, &sink);
  std::ostringstream os;
  write_metrics_csv(os, sink.series());
  std::istringstream in(os.str());
  std::string header;
  std::getline(in, header);

  // The 58 pre-existing columns keep their positions; each class's
  // occupancy objects and bytes come after them.
  const std::size_t old_end = header.find(",other_lost") + 11;
  EXPECT_EQ(std::count(header.begin(), header.begin() + old_end, ','), 57);
  std::string occupancy_columns;
  for (const auto cls : trace::kAllDocumentClasses) {
    const std::string slug = class_slug(cls);
    occupancy_columns +=
        "," + slug + "_occupancy_objects," + slug + "_occupancy_bytes";
  }
  EXPECT_EQ(header.substr(old_end), occupancy_columns);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line); ++rows) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','),
              std::count(header.begin(), header.end(), ','));
  }
  EXPECT_EQ(rows, sink.series().windows.size());
  EXPECT_GE(rows, 8u);
}

TEST(Reporter, DiagnosticsHasRowPerPolicyAndSize) {
  const SweepResult sweep = small_sweep();
  const util::Table table = render_sweep_diagnostics(sweep, "Diag");
  EXPECT_EQ(table.rows(), 2u * 4u);
  EXPECT_NE(table.to_text().find("Evictions"), std::string::npos);
}

TEST(Reporter, CsvExportParsesBack) {
  const SweepResult sweep = small_sweep();
  const util::Table table =
      render_sweep_overall(sweep, Metric::kHitRate, "Overall");
  const std::string csv = table.to_csv();
  // Header + two data rows, each with 2 + 4 columns.
  std::size_t lines = 0, commas_first_line = 0;
  for (std::size_t i = 0; i < csv.size(); ++i) {
    if (csv[i] == '\n') ++lines;
    if (csv[i] == ',' && lines == 0) ++commas_first_line;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(commas_first_line, 5u);
}

}  // namespace
}  // namespace webcache::sim
