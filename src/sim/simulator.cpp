#include "sim/simulator.hpp"

#include "obs/stats_sink.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

// Every overload is one detail::replay_trace call (sim/replay_core.hpp).
// Its NullSink instantiation *is* the pre-obs loop: the empty inline hooks
// compile away and results stay bit-identical (ObsEquivalence*,
// RecordingSink.SeriesSumsBackToAggregateExactly; perfbench's
// obs.recording_ns_per_req prices the recording loop).

using detail::admission_limit_of;
using detail::replay_trace;

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options) {
  return simulate(trace, capacity_bytes, cache::make_policy(policy), options,
                  admission_limit_of(policy));
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   std::unique_ptr<cache::ReplacementPolicy> policy,
                   const SimulatorOptions& options,
                   std::uint64_t admission_limit_bytes) {
  cache::SingleCacheFrontend frontend(capacity_bytes, std::move(policy),
                                      admission_limit_bytes);
  return replay_trace(trace, frontend, options, obs::NullSink{});
}

SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& frontend,
                   const SimulatorOptions& options) {
  return replay_trace(trace, frontend, options, obs::NullSink{});
}

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options) {
  return replay_trace(trace, frontend, options, obs::NullSink{});
}

SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  return replay_trace(trace, frontend, options, sink);
}

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  return replay_trace(trace, frontend, options, sink);
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      admission_limit_of(policy));
  return replay_trace(trace, frontend, options, sink);
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      admission_limit_of(policy));
  return replay_trace(trace, frontend, options, sink);
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options) {
  return simulate(trace, capacity_bytes, cache::make_policy(policy), options,
                  admission_limit_of(policy));
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   std::unique_ptr<cache::ReplacementPolicy> policy,
                   const SimulatorOptions& options,
                   std::uint64_t admission_limit_bytes) {
  cache::SingleCacheFrontend frontend(capacity_bytes, std::move(policy),
                                      admission_limit_bytes);
  return replay_trace(trace, frontend, options, obs::NullSink{});
}

}  // namespace webcache::sim
