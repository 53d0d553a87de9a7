// Golden fault-schedule regression harness.
//
// The checked-in DFN workload (tests/data/golden_dfn.wct) is replayed
// through the 3-edge sibling mesh under a checked-in fault scenario
// (tests/data/golden_faults.schedule: an edge crash + recovery, a degraded
// probe path, a root outage, and an edge/root double fault), and the exact
// counters — per-level hits, per-class splits, failovers, lost requests,
// origin fetches, probe timeouts — are pinned in
// golden_faults_expected.tsv. Any change to the degraded-routing rules or
// the fault accounting that shifts a single request fails here with a
// field-level diff.
//
// To regenerate after an *intended* behaviour change:
//   WEBCACHE_UPDATE_GOLDEN=1 ./webcache_tests --gtest_filter='GoldenFault.*'
// then review the TSV diff like any other code change.
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
#include "sim/reporter.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"

namespace webcache {
namespace {

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

std::string data_path(const std::string& name) {
  return std::string(WEBCACHE_TEST_DATA_DIR) + "/" + name;
}

sim::HierarchyConfig golden_config(const trace::DenseTrace& t) {
  sim::HierarchyConfig config;
  config.edge_count = 3;
  config.edge_capacity_bytes = t.overall_size_bytes() / 100;
  config.edge_policy = cache::policy_spec_from_name("GD*(1)");
  config.root_capacity_bytes = t.overall_size_bytes() / 12;
  config.root_policy = cache::policy_spec_from_name("GD*(packet)");
  config.sibling_cooperation = true;
  return config;
}

void flatten_counters(std::map<std::string, std::uint64_t>& out,
                      const std::string& prefix, const sim::HitCounters& c) {
  out[prefix + ".requests"] = c.requests;
  out[prefix + ".hits"] = c.hits;
  out[prefix + ".requested_bytes"] = c.requested_bytes;
  out[prefix + ".hit_bytes"] = c.hit_bytes;
}

/// The full result as key -> counter, so the golden file is a readable,
/// diffable ledger and mismatches name the exact field.
std::map<std::string, std::uint64_t> flatten(const sim::HierarchyResult& r) {
  std::map<std::string, std::uint64_t> out;
  flatten_counters(out, "offered", r.offered);
  flatten_counters(out, "edge", r.edge_hits);
  flatten_counters(out, "sibling", r.sibling_hits);
  flatten_counters(out, "root", r.root_hits);
  for (const auto cls : trace::kAllDocumentClasses) {
    const auto i = static_cast<std::size_t>(cls);
    const std::string name = sim::class_slug(cls);  // no spaces: TSV-safe
    flatten_counters(out, "edge_class." + name, r.edge_per_class[i]);
    flatten_counters(out, "root_class." + name, r.root_per_class[i]);
  }
  out["root_requests"] = r.root_requests;
  out["edge_evictions"] = r.edge_evictions;
  out["root_evictions"] = r.root_evictions;
  out["faults.events_applied"] = r.faults.events_applied;
  out["faults.failovers"] = r.faults.failovers;
  out["faults.lost_requests"] = r.faults.lost_requests;
  out["faults.lost_bytes"] = r.faults.lost_bytes;
  out["faults.probe_timeouts"] = r.faults.probe_timeouts;
  out["faults.origin_fetches"] = r.faults.origin_fetches;
  return out;
}

std::map<std::string, std::uint64_t> read_golden(std::istream& is) {
  std::map<std::string, std::uint64_t> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string key;
    std::uint64_t value = 0;
    if (in >> key >> value) out[key] = value;
  }
  return out;
}

void expect_matches_golden(const std::map<std::string, std::uint64_t>& expected,
                           const std::map<std::string, std::uint64_t>& actual,
                           const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (const auto& [key, value] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << label << ": missing " << key;
    EXPECT_EQ(value, it->second) << label << ": " << key;
  }
}

TEST(GoldenFault, ScheduleReplayMatchesGoldenCounters) {
  const trace::DenseTrace t = trace::densify(
      trace::read_binary_trace_file(data_path("golden_dfn.wct")),
      trace::ClientColumn::kLoad);
  ASSERT_EQ(t.total_requests(), 6718u);
  const sim::FaultSchedule schedule =
      sim::load_fault_schedule_file(data_path("golden_faults.schedule"));
  ASSERT_FALSE(schedule.empty());

  const sim::HierarchyResult r =
      sim::simulate_hierarchy(t, golden_config(t), nullptr, &schedule);
  const auto actual = flatten(r);

  // The scenario must actually exercise every degraded-routing path —
  // otherwise the golden file pins nothing.
  EXPECT_GT(r.faults.failovers, 0u);
  EXPECT_GT(r.faults.lost_requests, 0u);
  EXPECT_GT(r.faults.origin_fetches, 0u);
  EXPECT_GT(r.faults.probe_timeouts, 0u);
  EXPECT_GT(r.sibling_hits.hits, 0u);

  if (std::getenv("WEBCACHE_UPDATE_GOLDEN") != nullptr) {
    const std::string path = data_path("golden_faults_expected.tsv");
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# golden fault-injection counters: golden_dfn.wct x "
           "golden_faults.schedule\n"
        << "# 3-edge sibling mesh, GD*(1) edges at 1/100, GD*(packet) root "
           "at 1/12, defaults otherwise\n";
    for (const auto& [key, value] : actual) {
      out << key << '\t' << value << '\n';
    }
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(data_path("golden_faults_expected.tsv"));
  ASSERT_TRUE(in) << "missing golden file; run with WEBCACHE_UPDATE_GOLDEN=1";
  expect_matches_golden(read_golden(in), actual, "golden");
}

TEST(GoldenFault, DensePathMatchesGoldenCounters) {
  // The instrumented fault replay must reproduce the same file: attaching
  // a sink observes the dense replay without changing a single counter.
  std::ifstream in(data_path("golden_faults_expected.tsv"));
  ASSERT_TRUE(in) << "missing golden file; run with WEBCACHE_UPDATE_GOLDEN=1";

  const trace::DenseTrace t = trace::densify(
      trace::read_binary_trace_file(data_path("golden_dfn.wct")),
      trace::ClientColumn::kLoad);
  const sim::FaultSchedule schedule =
      sim::load_fault_schedule_file(data_path("golden_faults.schedule"));
  obs::RecordingSink sink(500);
  const sim::HierarchyResult r =
      sim::simulate_hierarchy(t, golden_config(t), &sink, &schedule);
  expect_matches_golden(read_golden(in), flatten(r), "instrumented");
  EXPECT_EQ(sink.series().total_requests, t.total_requests());
  EXPECT_EQ(sink.series().fault_nodes, 4u);  // 3 edges + the root
}

}  // namespace
}  // namespace webcache
