// Pins sim::simulate to the textbook oracle (tests/support/oracle.hpp) on
// the checked-in golden trace: every paper policy, LRU-THOLD, three cache
// sizes, the three modification rules, with and without the 10 % warm-up.
// The whole SimResult must be equal, latency sums included.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "support/oracle.hpp"
#include "support/result_eq.hpp"
#include "trace/binary_trace.hpp"

namespace webcache::sim {
namespace {

#ifndef WEBCACHE_TEST_DATA_DIR
#error "WEBCACHE_TEST_DATA_DIR must point at tests/data"
#endif

const trace::Trace& golden_trace() {
  static const trace::Trace trace = trace::read_binary_trace_file(
      std::string(WEBCACHE_TEST_DATA_DIR) + "/golden_dfn.wct");
  return trace;
}

struct Cell {
  std::string policy;
  double cache_fraction;
  ModificationRule rule;
  double warmup;
};

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.policy << " at " << cell.cache_fraction * 100 << " %, rule "
      << static_cast<int>(cell.rule) << ", warm-up " << cell.warmup;
}

std::string rule_name(ModificationRule rule) {
  switch (rule) {
    case ModificationRule::kThreshold:
      return "threshold";
    case ModificationRule::kAnyChange:
      return "anychange";
    case ModificationRule::kNever:
      return "never";
  }
  return "?";
}

// LRU-THOLD's limit is a transfer size 168 golden requests carry exactly,
// so the cells pin the admission boundary (size == limit is admitted).
std::vector<Cell> golden_cells() {
  std::vector<Cell> cells;
  for (const char* policy :
       {"LRU", "LFU-DA", "GDS(1)", "GDS(packet)", "GD*(1)", "GD*(packet)",
        "LRU-THOLD(3075)"}) {
    for (const double fraction : {0.005, 0.04, 0.40}) {
      for (const ModificationRule rule :
           {ModificationRule::kThreshold, ModificationRule::kAnyChange,
            ModificationRule::kNever}) {
        for (const double warmup : {0.1, 0.0}) {
          cells.push_back({policy, fraction, rule, warmup});
        }
      }
    }
  }
  return cells;
}

// e.g. GD__packet__0_5pct_threshold_w10.
std::string cell_name(const testing::TestParamInfo<Cell>& info) {
  std::ostringstream out;
  out << info.param.policy << "_" << info.param.cache_fraction * 100 << "pct_"
      << rule_name(info.param.rule) << "_w" << info.param.warmup * 100;
  std::string name = out.str();
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class Oracle : public testing::TestWithParam<Cell> {};

TEST_P(Oracle, SimulateMatchesOnGoldenTrace) {
  const Cell& cell = GetParam();
  const trace::Trace& trace = golden_trace();
  const std::uint64_t capacity = static_cast<std::uint64_t>(
      static_cast<double>(trace.overall_size_bytes()) * cell.cache_fraction);
  SimulatorOptions options;
  options.modification_rule = cell.rule;
  options.warmup_fraction = cell.warmup;
  const cache::PolicySpec spec = cache::policy_spec_from_name(cell.policy);

  const SimResult expected = oracle::replay(trace, capacity, spec, options);
  // The cell must exercise what it names.
  EXPECT_GT(expected.overall.hits, 0u);
  if (cell.cache_fraction < 0.01) {
    EXPECT_GT(expected.evictions, 0u);
  }
  if (spec.kind == cache::PolicyKind::kLruThreshold) {
    EXPECT_GT(expected.bypasses, 0u);
  }
  expect_same_result(expected, simulate(trace, capacity, spec, options),
                     cell.policy);
}

INSTANTIATE_TEST_SUITE_P(Golden, Oracle, testing::ValuesIn(golden_cells()),
                         cell_name);

TEST(OracleSelfCheck, RejectsPoliciesItDoesNotModel) {
  for (const char* name : {"FIFO", "GDSF(1)", "GDS(latency)", "GD*(1):beta=0.5",
                           "LRU-MIN"}) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    EXPECT_FALSE(oracle::supports(spec)) << name;
    EXPECT_THROW(oracle::replay(golden_trace(), 1 << 20, spec),
                 std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace webcache::sim
