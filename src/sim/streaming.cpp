#include "sim/streaming.hpp"

#include "sim/checkpoint.hpp"

namespace webcache::sim {

namespace {

/// The checkpoint-free job every overload runs.
StreamCheckpointJob plain_job(const SimulatorOptions& options,
                              obs::RecordingSink* sink,
                              const FaultSchedule* faults) {
  StreamCheckpointJob job;
  job.options = options;
  job.sink = sink;
  job.faults = faults;
  return job;
}

}  // namespace

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options) {
  return simulate_stream_checkpointed(
             stream, frontend, plain_job(options, nullptr, nullptr))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options) {
  return simulate_stream_checkpointed(
             stream, capacity_bytes, policy,
             plain_job(options, nullptr, nullptr))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink) {
  return simulate_stream_checkpointed(
             stream, capacity_bytes, policy,
             plain_job(options, &sink, nullptr))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults) {
  return simulate_stream_checkpointed(
             stream, capacity_bytes, policy,
             plain_job(options, nullptr, &faults))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink) {
  return simulate_stream_checkpointed(
             stream, capacity_bytes, policy,
             plain_job(options, &sink, &faults))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink) {
  return simulate_stream_checkpointed(
             stream, frontend, plain_job(options, &sink, nullptr))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults) {
  return simulate_stream_checkpointed(
             stream, frontend, plain_job(options, nullptr, &faults))
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          cache::CacheFrontend& frontend,
                          const SimulatorOptions& options,
                          const FaultSchedule& faults,
                          obs::RecordingSink& sink) {
  return simulate_stream_checkpointed(
             stream, frontend, plain_job(options, &sink, &faults))
      .result;
}

}  // namespace webcache::sim
