#include "sim/simulator.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/stats_sink.hpp"
#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"

namespace webcache::sim {

namespace {

using detail::admission_limit_of;
using detail::validate_options;

// Templated on the sink so the NullSink instantiation *is* the pre-obs
// loop: the empty inline hook compiles away and results stay bit-identical
// (ObsEquivalence*, RecordingSink.SeriesSumsBackToAggregateExactly;
// perfbench's obs.recording_ns_per_req prices the recording loop).
// The per-request body lives in detail::ReplayCore, shared with the
// fault-aware loop (faults.cpp) and the streaming entry points
// (streaming.cpp).
template <typename LastSize, obs::StatsSink Sink>
SimResult simulate_loop(const trace::Trace& trace, cache::CacheFrontend& cache,
                        const SimulatorOptions& options, LastSize& last_size,
                        Sink& sink) {
  detail::ReplayCore<LastSize, Sink> core(cache, options, last_size, sink,
                                          trace.requests.size());
  for (const trace::Request& r : trace.requests) core.step(r);
  return core.finish();
}

}  // namespace

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
  return simulate(trace, frontend, options);
}

SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& cache,
                   const SimulatorOptions& options) {
  validate_options(options);
  detail::SparseLastSize last_size(trace.requests.size());
  obs::NullSink sink;
  return simulate_loop(trace, cache, options, last_size, sink);
}

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options) {
  validate_options(options);
  frontend.reserve_dense_ids(trace.document_count());
  detail::DenseLastSize last_size(trace.document_count());
  obs::NullSink sink;
  return simulate_loop(trace.trace, frontend, options, last_size, sink);
}

SimResult simulate(const trace::Trace& trace, cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  validate_options(options);
  detail::SparseLastSize last_size(trace.requests.size());
  sink.begin_run(frontend);
  SimResult result = simulate_loop(trace, frontend, options, last_size, sink);
  sink.end_run();
  return result;
}

SimResult simulate(const trace::DenseTrace& trace,
                   cache::CacheFrontend& frontend,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  validate_options(options);
  frontend.reserve_dense_ids(trace.document_count());
  detail::DenseLastSize last_size(trace.document_count());
  sink.begin_run(frontend);
  SimResult result =
      simulate_loop(trace.trace, frontend, options, last_size, sink);
  sink.end_run();
  return result;
}

SimResult simulate(const trace::Trace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      admission_limit_of(policy));
  return simulate(trace, frontend, options, sink);
}

SimResult simulate(const trace::DenseTrace& trace, std::uint64_t capacity_bytes,
                   const cache::PolicySpec& policy,
                   const SimulatorOptions& options, obs::RecordingSink& sink) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                      cache::make_policy(policy),
                                      admission_limit_of(policy));
  return simulate(trace, frontend, options, sink);
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
  return simulate(trace, frontend, options);
}

}  // namespace webcache::sim
