#include "sim/streaming.hpp"

#include "sim/checkpoint.hpp"

namespace webcache::sim {

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options) {
  return simulate_stream_checkpointed(stream, capacity_bytes, policy,
                                      {.options = options})
      .result;
}

SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink) {
  return simulate_stream_checkpointed(stream, capacity_bytes, policy,
                                      {.options = options, .sink = &sink})
      .result;
}

}  // namespace webcache::sim
