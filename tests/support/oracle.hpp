// A textbook replay of the paper's simulator (Section 4.1), written a second
// time from DESIGN.md §1 and used only by the tests as an independent
// reference for sim::simulate and sim::run_sweep.
//
// It shares no container or policy code with the library: resident
// documents sit in a std::map and every eviction scans them all for the
// minimum. It covers what the paper simulates:
//  * LRU, LFU-DA (H = L + refcount), GDS (H = L + c/s) and GD*
//    (H = L + (f·c/s)^(1/β), β estimated online by cache::BetaEstimator);
//    ties between equal priorities go to the document inserted first;
//  * the constant (c = 1) and packet (c = 2 + s/536) cost models;
//  * LRU-THOLD, i.e. LRU that never stores documents above a size limit;
//  * the warm-up fraction and the three sim::ModificationRules.
// Priorities are computed with the same floating-point expressions as the
// policies, so equal results mean equal doubles, not "close" ones.
#pragma once

#include <cstdint>

#include "cache/factory.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/request.hpp"

namespace webcache::oracle {

/// Whether the oracle models `spec`: LRU, LRU-THOLD, LFU-DA, and GDS/GD*
/// with the constant or packet cost model and an online β.
bool supports(const cache::PolicySpec& spec);

/// Replays `trace` through one cache of `capacity_bytes` under `spec`.
/// Every SimResult field that sim::simulate fills is filled the same way.
/// Throws std::invalid_argument when !supports(spec).
sim::SimResult replay(const trace::Trace& trace, std::uint64_t capacity_bytes,
                      const cache::PolicySpec& spec,
                      const sim::SimulatorOptions& options = {});

}  // namespace webcache::oracle
