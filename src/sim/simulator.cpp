#include "sim/simulator.hpp"

#include <cmath>
#include <sstream>

#include "obs/stats_sink.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

// Every materialized replay is one call to the frontend form: one loop over
// the trace's records stepping the shared ReplayCore. Its NullSink
// instantiation *is* the pre-obs loop: the empty inline hooks compile away
// and results stay bit-identical (ObsEquivalence*,
// RecordingSink.SeriesSumsBackToAggregateExactly; perfbench's
// obs.recording_ns_per_req prices the recording loop).

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink* sink) {
  detail::validate_options(options);
  return detail::dispatch_replay(sink, [&](auto& s) {
    constexpr bool kRecording = detail::kRecordingSink<decltype(s)>;
    frontend.reserve_dense_ids(trace.document_count());
    if constexpr (kRecording) s.begin_run(frontend);
    detail::ReplayCore core(frontend, options, s, trace.records.size());
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
                   const SimulatorOptions& options, obs::RecordingSink* sink) {
  cache::Cache cache(capacity_bytes, cache::make_policy(policy));
  return simulate(trace, cache, options, sink);
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options) {
  return simulate(trace::densify(trace), capacity_bytes, policy, options);
}

double fraction_bytes(const std::string& what, double fraction,
                      std::uint64_t total_bytes) {
  const double bytes = static_cast<double>(total_bytes) * fraction;
  const bool positive = std::isfinite(fraction) && fraction > 0.0;
  if (positive && bytes < 0x1p64) return bytes;
  std::ostringstream message;
  message << what;
  if (positive) {
    message << " of " << total_bytes << " bytes overflows 64-bit bytes";
  } else {
    message << " must be a finite number > 0";
  }
  message << " (got " << fraction << ")";
  throw std::invalid_argument(message.str());
}

}  // namespace webcache::sim
