#include "sim/simulator.hpp"

#include "obs/stats_sink.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

// Every materialized replay is one call to the frontend form: one loop over
// the trace's records stepping the shared ReplayCore. Its NullSink/NoFaults
// instantiation *is* the pre-obs, pre-fault loop: the empty inline hooks
// compile away and results stay bit-identical (ObsEquivalence*,
// FaultEquivalence*, RecordingSink.SeriesSumsBackToAggregateExactly;
// perfbench's obs.recording_ns_per_req prices the recording loop).

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink* sink,
                   const FaultSchedule* faults) {
  detail::validate_options(options);
  return detail::dispatch_replay(
      sink, faults, frontend.fault_domains(), /*has_root=*/false,
      [&](auto& s, auto& f) {
        constexpr bool kRecording = detail::kRecordingSink<decltype(s)>;
        frontend.reserve_dense_ids(trace.document_count());
        if constexpr (kRecording) s.begin_run(frontend);
        detail::ReplayCore core(frontend, options, s, trace.records.size(), f);
        trace::PreviousSizeCursor previous(trace);
        for (const trace::ReplayRecord& r : trace.records) {
          core.step(r, previous.take(r));
        }
        previous.expect_end();
        if constexpr (kRecording) s.end_run();
        return core.finish();
      });
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink* sink,
                   const FaultSchedule* faults) {
  cache::Cache cache(capacity_bytes, cache::make_policy(policy));
  return simulate(trace, cache, options, sink, faults);
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options) {
  return simulate(trace::densify(trace), capacity_bytes, policy, options);
}

}  // namespace webcache::sim
