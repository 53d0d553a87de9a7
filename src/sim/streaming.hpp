// Bounded-memory replay over a RequestStream.
//
// simulate_stream() drives the same per-request core as simulate()
// (sim/replay_core.hpp) chunk by chunk, so its SimResult is bit-identical
// to materializing the stream into a Trace and calling simulate(). Each
// document gets its dense id as it is read (trace::StreamIds: the ids a
// WCT1 v4 file stores, else one trace::IdMap intern per request) and the
// frontend runs on flat arrays indexed by the dense id, so memory is
// O(chunk + distinct documents), not O(trace): the id table, the last-size
// tracker and the frontend's id indices cover every document ever seen,
// about 54 bytes per document at DFN 1.0 with LRU and an interned stream
// (peak RSS of a 1 MiB cache run, net of a 30 k-document run), on top of
// the resident objects; a v4 stream needs no id map's slot table. Warm-up
// boundaries, metrics windows and fault schedules all key off the global
// request index, so they behave identically when they straddle chunk
// boundaries (tests/sim/streaming_equivalence_test.cpp pins all of it).
//
// Both overloads run the one streamed loop, simulate_stream_checkpointed()
// (sim/checkpoint.hpp), with checkpoints off; that function is also the
// entry point for a caller-built frontend and for fault schedules.
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/simulator.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {

/// Streams the requests through a fresh cache::Cache(capacity_bytes,
/// make_policy(policy)); the stream is consumed (call stream.reset() to
/// replay it again).
SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options = {});

/// Instrumented run: the RecordingSink collects the same windowed series a
/// materialized instrumented simulate() would.
SimResult simulate_stream(trace::RequestStream& stream,
                          std::uint64_t capacity_bytes,
                          const cache::PolicySpec& policy,
                          const SimulatorOptions& options,
                          obs::RecordingSink& sink);

}  // namespace webcache::sim
