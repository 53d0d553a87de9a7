// The replay engine against the textbook oracle (tests/support/oracle.hpp)
// beyond the golden trace: the dense simulate() and run_sweep() must
// reproduce the oracle's whole SimResult for the paper policies on a DFN
// trace and on three fuzzed request mixes, under every modification rule,
// and the parallel sweep must be thread-count invariant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "support/oracle.hpp"
#include "support/result_eq.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/dense_trace.hpp"

namespace webcache::sim {
namespace {

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

// Three request mixes: the DFN profile, the RTP profile (a very different
// class composition), and a one-timer-heavy DFN variant (flatter
// popularity, so many documents are referenced exactly once).
std::vector<trace::Trace> fuzzed_mixes() {
  std::vector<trace::Trace> out;
  synth::GeneratorOptions gen;
  gen.seed = 101;
  out.push_back(
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.001), gen)
          .generate());
  gen.seed = 202;
  out.push_back(
      synth::TraceGenerator(synth::WorkloadProfile::RTP().scaled(0.0012), gen)
          .generate());
  gen.seed = 303;
  synth::WorkloadProfile one_timer_heavy =
      synth::WorkloadProfile::DFN().scaled(0.001);
  for (const auto cls : trace::kAllDocumentClasses) {
    one_timer_heavy.of(cls).alpha = 1.1;
  }
  out.push_back(synth::TraceGenerator(one_timer_heavy, gen).generate());
  return out;
}

const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> names = {
      "LRU",    "LFU-DA",      "GDS(1)",          "GDS(packet)",
      "GD*(1)", "GD*(packet)", "LRU-THOLD(300000)"};
  return names;
}

constexpr ModificationRule kRules[] = {ModificationRule::kThreshold,
                                       ModificationRule::kAnyChange,
                                       ModificationRule::kNever};

TEST(OracleEquivalence, SimulateMatchesOracleForPaperPolicies) {
  const trace::Trace trace = recorded_trace();
  const trace::DenseTrace dense = trace::densify(trace);
  const std::uint64_t capacity = trace.overall_size_bytes() / 25;  // 4%

  for (const std::string& name : paper_policies()) {
    const cache::PolicySpec spec = cache::policy_spec_from_name(name);
    expect_same_result(oracle::replay(trace, capacity, spec),
                       simulate(dense, capacity, spec), name);
  }
}

TEST(OracleEquivalence, ModificationRulesMatch) {
  const trace::Trace trace = recorded_trace();
  const trace::DenseTrace dense = trace::densify(trace);
  const std::uint64_t capacity = trace.overall_size_bytes() / 50;

  for (const ModificationRule rule : kRules) {
    SimulatorOptions options;
    options.modification_rule = rule;
    for (const std::string& name : paper_policies()) {
      const cache::PolicySpec spec = cache::policy_spec_from_name(name);
      expect_same_result(
          oracle::replay(trace, capacity, spec, options),
          simulate(dense, capacity, spec, options),
          name + " rule " + std::to_string(static_cast<int>(rule)));
    }
  }
}

TEST(OracleEquivalence, FuzzedMixesMatchOracle) {
  const std::vector<trace::Trace> mixes = fuzzed_mixes();
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const trace::DenseTrace dense = trace::densify(mixes[m]);
    for (const std::uint64_t divisor : {200, 12}) {  // 0.5 % and ~8 %
      const std::uint64_t capacity =
          mixes[m].overall_size_bytes() / divisor;
      for (const ModificationRule rule : kRules) {
        SimulatorOptions options;
        options.modification_rule = rule;
        for (const std::string& name : paper_policies()) {
          const cache::PolicySpec spec = cache::policy_spec_from_name(name);
          expect_same_result(
              oracle::replay(mixes[m], capacity, spec, options),
              simulate(dense, capacity, spec, options),
              "mix " + std::to_string(m) + " 1/" + std::to_string(divisor) +
                  " " + name + " rule " +
                  std::to_string(static_cast<int>(rule)));
        }
      }
    }
  }
}

TEST(OracleEquivalence, SweepMatchesOracle) {
  const trace::Trace trace = recorded_trace();
  const trace::DenseTrace dense = trace::densify(trace);

  SweepConfig config;
  config.cache_fractions = {0.02, 0.08};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kConstant);
  for (const cache::PolicySpec& spec :
       cache::paper_policy_set(cache::CostModelKind::kPacket)) {
    if (spec.kind != cache::PolicyKind::kLru &&
        spec.kind != cache::PolicyKind::kLfuDa) {
      config.policies.push_back(spec);
    }
  }
  config.threads = 2;

  const SweepResult sweep = run_sweep(dense, config);
  ASSERT_EQ(sweep.points.size(), config.cache_fractions.size());
  for (std::size_t f = 0; f < sweep.points.size(); ++f) {
    for (std::size_t p = 0; p < config.policies.size(); ++p) {
      expect_same_result(
          oracle::replay(trace, sweep.points[f].capacity_bytes,
                         config.policies[p], config.simulator),
          sweep.points[f].results[p],
          "cell f" + std::to_string(f) + " p" + std::to_string(p));
    }
  }
}

TEST(OracleEquivalence, SweepIsThreadCountInvariant) {
  const trace::DenseTrace dense = trace::densify(recorded_trace());

  SweepConfig config;
  config.cache_fractions = {0.01, 0.04, 0.16};
  config.policies = cache::paper_policy_set(cache::CostModelKind::kPacket);

  config.threads = 1;
  const SweepResult serial = run_sweep(dense, config);
  config.threads = 8;
  const SweepResult parallel = run_sweep(dense, config);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  EXPECT_EQ(serial.overall_size_bytes, parallel.overall_size_bytes);
  for (std::size_t f = 0; f < serial.points.size(); ++f) {
    ASSERT_EQ(serial.points[f].results.size(),
              parallel.points[f].results.size());
    EXPECT_EQ(serial.points[f].capacity_bytes,
              parallel.points[f].capacity_bytes);
    for (std::size_t p = 0; p < serial.points[f].results.size(); ++p) {
      expect_same_result(serial.points[f].results[p],
                         parallel.points[f].results[p],
                         "cell f" + std::to_string(f) + " p" +
                             std::to_string(p));
    }
  }
}

}  // namespace
}  // namespace webcache::sim
