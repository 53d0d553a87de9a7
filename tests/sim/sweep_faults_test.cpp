// Fault schedules on the sweep drivers: every grid cell replays the same
// FaultSchedule against a fresh frontend. An empty (or never-firing)
// schedule must leave the sweep bit-identical to the plain driver, crash
// events must surface in the per-cell FaultStats deterministically, and
// schedules a frontend cannot express (root/probe events, out-of-range
// nodes) must be rejected.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/factory.hpp"
#include "sim/faults.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace webcache::sim {
namespace {

trace::Trace recorded_trace() {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  return generator.generate();
}

void expect_identical_cells(const SweepResult& a, const SweepResult& b,
                            const std::string& label) {
  ASSERT_EQ(a.points.size(), b.points.size()) << label;
  for (std::size_t f = 0; f < a.points.size(); ++f) {
    ASSERT_EQ(a.points[f].results.size(), b.points[f].results.size()) << label;
    EXPECT_EQ(a.points[f].capacity_bytes, b.points[f].capacity_bytes) << label;
    for (std::size_t p = 0; p < a.points[f].results.size(); ++p) {
      const SimResult& x = a.points[f].results[p];
      const SimResult& y = b.points[f].results[p];
      const std::string at =
          label + " f" + std::to_string(f) + " p" + std::to_string(p);
      EXPECT_EQ(x.policy_name, y.policy_name) << at;
      EXPECT_EQ(x.overall.requests, y.overall.requests) << at;
      EXPECT_EQ(x.overall.hits, y.overall.hits) << at;
      EXPECT_EQ(x.overall.hit_bytes, y.overall.hit_bytes) << at;
      EXPECT_EQ(x.evictions, y.evictions) << at;
      EXPECT_EQ(x.bypasses, y.bypasses) << at;
      EXPECT_EQ(x.miss_latency_ms, y.miss_latency_ms) << at;
      EXPECT_EQ(x.all_miss_latency_ms, y.all_miss_latency_ms) << at;
      EXPECT_EQ(x.faults.events_applied, y.faults.events_applied) << at;
      EXPECT_EQ(x.faults.lost_requests, y.faults.lost_requests) << at;
      EXPECT_EQ(x.faults.lost_bytes, y.faults.lost_bytes) << at;
    }
  }
}

SweepConfig policy_config() {
  SweepConfig config;
  config.cache_fractions = {0.01, 0.04};
  config.policies = {cache::policy_spec_from_name("LRU"),
                     cache::policy_spec_from_name("GDSF(1)")};
  return config;
}

TEST(SweepFaults, NeverFiringScheduleIsBitIdenticalToPlainSweep) {
  // A schedule whose only event lies past the end of the trace exercises
  // the fault-aware cell loop end to end without ever changing state — the
  // strongest equivalence the fault layer promises.
  const trace::Trace t = recorded_trace();
  SweepConfig plain = policy_config();
  plain.one_pass = OnePassMode::kOff;  // same per-cell path on both sides
  const SweepResult baseline = run_sweep(t, plain);

  SweepConfig faulty = plain;
  faulty.faults.events.push_back(
      FaultEvent{t.requests.size() * 10, FaultKind::kEdgeCrash, 0});
  const SweepResult with_schedule = run_sweep(t, faulty);
  expect_identical_cells(baseline, with_schedule, "never-firing");
}

TEST(SweepFaults, EmptyScheduleTakesThePlainPathUnchanged) {
  const trace::Trace t = recorded_trace();
  const SweepConfig config = policy_config();  // default: empty schedule
  EXPECT_TRUE(config.faults.empty());
  const SweepResult a = run_sweep(t, config);
  const SweepResult b = run_sweep(t, config);
  expect_identical_cells(a, b, "empty schedule determinism");
}

TEST(SweepFaults, CrashLosesRequestsInEveryCellDeterministically) {
  const trace::Trace t = recorded_trace();
  SweepConfig config = policy_config();
  // Crash the (single-domain) cache a third of the way in, never recover:
  // every later request of every cell is lost.
  config.faults.events.push_back(
      FaultEvent{t.requests.size() / 3, FaultKind::kEdgeCrash, 0});

  const SweepResult a = run_sweep(t, config);
  const SweepResult b = run_sweep(t, config);
  expect_identical_cells(a, b, "crash determinism");
  for (const SweepPoint& point : a.points) {
    for (const SimResult& r : point.results) {
      EXPECT_EQ(r.faults.events_applied, 1u) << r.policy_name;
      EXPECT_GT(r.faults.lost_requests, 0u) << r.policy_name;
      // Lost requests are counted in the totals but can never hit.
      EXPECT_LE(r.overall.hits + r.faults.lost_requests, r.overall.requests)
          << r.policy_name;
    }
  }
}

TEST(SweepFaults, RecoveryRestartsCold) {
  const trace::Trace t = recorded_trace();
  SweepConfig config = policy_config();
  config.faults.events.push_back(
      FaultEvent{t.requests.size() / 2, FaultKind::kEdgeCrash, 0});
  config.faults.events.push_back(
      FaultEvent{t.requests.size() / 2 + 2000, FaultKind::kEdgeRecover, 0});
  const SweepResult r = run_sweep(t, config);
  for (const SweepPoint& point : r.points) {
    for (const SimResult& cell : point.results) {
      EXPECT_EQ(cell.faults.events_applied, 2u) << cell.policy_name;
      EXPECT_GT(cell.faults.lost_requests, 0u) << cell.policy_name;
      // The cache serves again after recovery, so losses are bounded by
      // the outage span.
      EXPECT_LT(cell.faults.lost_requests, cell.overall.requests)
          << cell.policy_name;
    }
  }
}

TEST(SweepFaults, RejectsEventsTheFrontendCannotExpress) {
  const trace::Trace t = recorded_trace();
  SweepConfig root = policy_config();
  root.faults.events.push_back(
      FaultEvent{100, FaultKind::kRootOutage, 0});
  EXPECT_THROW(run_sweep(t, root), std::invalid_argument);

  SweepConfig out_of_range = policy_config();
  out_of_range.faults.events.push_back(
      FaultEvent{100, FaultKind::kEdgeCrash, 3});  // single-domain cells
  EXPECT_THROW(run_sweep(t, out_of_range), std::invalid_argument);
}

}  // namespace
}  // namespace webcache::sim
