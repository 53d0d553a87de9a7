// Golden-trace regression harness.
//
// A small deterministic DFN workload is checked in as a binary trace
// (tests/data/golden_dfn.wct, generated once with the CLI at scale 0.001,
// seed 20020607) together with the exact replay counters every paper policy
// produces on it (golden_dfn_expected.tsv: 4 paper policies x 2 cost
// models plus the six lazy-promotion / RANDOM cells, overall and per-class
// hits/bytes, evictions, bypasses, modification misses). Any change to replacement, admission, warm-up accounting, or the
// modification rule that shifts even one counter fails here with a
// field-level diff naming the policy and the counter — long before it would
// show up as a fraction-of-a-percent drift in the paper figures.
//
// simulate(const Trace&) densifies first; the dense overload, called
// directly, must match the golden file too.
//
// To regenerate after an *intended* behaviour change:
//   WEBCACHE_UPDATE_GOLDEN=1 ./webcache_tests --gtest_filter='GoldenTrace.*'
// then review the TSV diff like any other code change.
#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"

namespace webcache {
namespace {

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

constexpr double kCacheFraction = 0.04;  // eviction-heavy, mid-ladder

std::string data_path(const std::string& name) {
  return std::string(WEBCACHE_TEST_DATA_DIR) + "/" + name;
}

std::string cost_name(cache::CostModelKind kind) {
  switch (kind) {
    case cache::CostModelKind::kConstant:
      return "constant";
    case cache::CostModelKind::kPacket:
      return "packet";
    case cache::CostModelKind::kLatency:
      return "latency";
  }
  return "?";
}

/// One golden row: every counter the replay produces for one policy cell.
struct GoldenRow {
  std::string policy;
  std::string cost;
  sim::HitCounters overall;
  std::array<sim::HitCounters, trace::kDocumentClassCount> per_class{};
  std::uint64_t evictions = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t modification_misses = 0;

  std::string key() const { return policy + " / " + cost; }
};

GoldenRow row_from(const sim::SimResult& r, const std::string& cost) {
  GoldenRow row;
  row.policy = r.policy_name;
  row.cost = cost;
  row.overall = r.overall;
  row.per_class = r.per_class;
  row.evictions = r.evictions;
  row.bypasses = r.bypasses;
  row.modification_misses = r.modification_misses;
  return row;
}

void write_counters(std::ostream& os, const sim::HitCounters& c) {
  os << '\t' << c.requests << '\t' << c.hits << '\t' << c.requested_bytes
     << '\t' << c.hit_bytes;
}

void write_rows(std::ostream& os, const std::vector<GoldenRow>& rows) {
  os << "# golden replay counters for tests/data/golden_dfn.wct\n"
     << "# columns: policy cost requests hits requested_bytes hit_bytes"
        " evictions bypasses modification_misses"
        " then per class (Images HTML MultiMedia Application Other):"
        " requests hits requested_bytes hit_bytes\n";
  for (const GoldenRow& row : rows) {
    os << row.policy << '\t' << row.cost;
    write_counters(os, row.overall);
    os << '\t' << row.evictions << '\t' << row.bypasses << '\t'
       << row.modification_misses;
    for (const sim::HitCounters& c : row.per_class) write_counters(os, c);
    os << '\n';
  }
}

bool read_counters(std::istringstream& in, sim::HitCounters& c) {
  return static_cast<bool>(in >> c.requests >> c.hits >> c.requested_bytes >>
                           c.hit_bytes);
}

std::vector<GoldenRow> read_rows(std::istream& is) {
  std::vector<GoldenRow> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    GoldenRow row;
    in >> row.policy >> row.cost;
    if (!read_counters(in, row.overall)) {
      ADD_FAILURE() << "malformed golden line: " << line;
      continue;
    }
    in >> row.evictions >> row.bypasses >> row.modification_misses;
    for (sim::HitCounters& c : row.per_class) read_counters(in, c);
    rows.push_back(row);
  }
  return rows;
}

void expect_counters_equal(const std::string& where,
                           const sim::HitCounters& expected,
                           const sim::HitCounters& actual) {
  EXPECT_EQ(expected.requests, actual.requests) << where << ": requests";
  EXPECT_EQ(expected.hits, actual.hits) << where << ": hits";
  EXPECT_EQ(expected.requested_bytes, actual.requested_bytes)
      << where << ": requested_bytes";
  EXPECT_EQ(expected.hit_bytes, actual.hit_bytes) << where << ": hit_bytes";
}

/// Field-level comparison: on drift the failure output names the policy
/// cell and the exact counter, which is the whole point of the harness.
void expect_rows_equal(const GoldenRow& expected, const GoldenRow& actual) {
  const std::string key = expected.key();
  expect_counters_equal(key + " overall", expected.overall, actual.overall);
  EXPECT_EQ(expected.evictions, actual.evictions) << key << ": evictions";
  EXPECT_EQ(expected.bypasses, actual.bypasses) << key << ": bypasses";
  EXPECT_EQ(expected.modification_misses, actual.modification_misses)
      << key << ": modification_misses";
  for (const auto cls : trace::kAllDocumentClasses) {
    const auto i = static_cast<std::size_t>(cls);
    expect_counters_equal(key + " " + std::string(trace::to_string(cls)),
                          expected.per_class[i], actual.per_class[i]);
  }
}

std::vector<cache::PolicySpec> golden_specs() {
  std::vector<cache::PolicySpec> specs =
      cache::paper_policy_set(cache::CostModelKind::kConstant);
  for (const cache::PolicySpec& spec :
       cache::paper_policy_set(cache::CostModelKind::kPacket)) {
    specs.push_back(spec);
  }
  // The lazy-promotion / RANDOM family, at the parameter points the
  // experiments use. RANDOM is golden-covered too: its draw stream is a
  // pure function of the seed, so the counters are as reproducible as
  // anyone else's.
  for (const char* name :
       {"RANDOM", "CLOCK", "DELAY-CLOCK:k=2", "PROB-LRU:p=0.5",
        "DELAY-LRU:k=16", "BATCH-LRU:batch=64"}) {
    specs.push_back(cache::policy_spec_from_name(name));
  }
  return specs;
}

class GoldenTrace : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new trace::Trace(
        trace::read_binary_trace_file(data_path("golden_dfn.wct")));
    capacity_ = static_cast<std::uint64_t>(
        static_cast<double>(trace_->overall_size_bytes()) * kCacheFraction);
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static const trace::Trace* trace_;
  static std::uint64_t capacity_;
};

const trace::Trace* GoldenTrace::trace_ = nullptr;
std::uint64_t GoldenTrace::capacity_ = 0;

TEST_F(GoldenTrace, TraceIsTheCheckedInWorkload) {
  // Guards the fixture itself: if the .wct is regenerated the expected
  // counters must be regenerated with it.
  EXPECT_EQ(trace_->total_requests(), 6718u);
  EXPECT_GT(capacity_, 0u);
}

TEST_F(GoldenTrace, PaperPoliciesMatchGoldenCounters) {
  const sim::SimulatorOptions options;  // defaults: 10% warm-up, threshold
  std::vector<GoldenRow> actual;
  for (const cache::PolicySpec& spec : golden_specs()) {
    const sim::SimResult r =
        sim::simulate(*trace_, capacity_, spec, options);
    actual.push_back(row_from(r, cost_name(spec.cost_model)));
  }

  if (std::getenv("WEBCACHE_UPDATE_GOLDEN") != nullptr) {
    const std::string path = data_path("golden_dfn_expected.tsv");
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    write_rows(out, actual);
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(data_path("golden_dfn_expected.tsv"));
  ASSERT_TRUE(in) << "missing golden file; run with WEBCACHE_UPDATE_GOLDEN=1";
  const std::vector<GoldenRow> expected = read_rows(in);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].policy, actual[i].policy) << "cell " << i;
    EXPECT_EQ(expected[i].cost, actual[i].cost) << "cell " << i;
    expect_rows_equal(expected[i], actual[i]);
  }
}

TEST_F(GoldenTrace, DensePathMatchesGoldenCounters) {
  // The dense overload, called directly on a densified trace, must
  // reproduce the same golden counters.
  std::ifstream in(data_path("golden_dfn_expected.tsv"));
  if (!in) GTEST_SKIP() << "golden file not generated yet";
  const std::vector<GoldenRow> expected = read_rows(in);

  const trace::DenseTrace dense = trace::densify(*trace_);
  const sim::SimulatorOptions options;
  const std::vector<cache::PolicySpec> specs = golden_specs();
  ASSERT_EQ(expected.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::SimResult r =
        sim::simulate(dense, capacity_, specs[i], options);
    expect_rows_equal(expected[i], row_from(r, cost_name(specs[i].cost_model)));
  }
}

}  // namespace
}  // namespace webcache
