// Renderers for simulation results: the hit-rate / byte-hit-rate series of
// Figures 2/3 (one table per document type and metric, columns = policies,
// rows = cache sizes), and the metrics exports whose per-window per-class
// occupancy is Figure 1.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/stats_sink.hpp"
#include "sim/hierarchy.hpp"
#include "sim/sweep.hpp"
#include "util/table.hpp"

namespace webcache::sim {

enum class Metric { kHitRate, kByteHitRate };

/// One figure panel: the chosen metric for one document class across the
/// sweep. Pass std::nullopt-like sentinel kOverall via overall=true.
util::Table render_sweep_panel(const SweepResult& sweep,
                               trace::DocumentClass doc_class, Metric metric,
                               const std::string& title);

/// The overall (all classes combined) panel.
util::Table render_sweep_overall(const SweepResult& sweep, Metric metric,
                                 const std::string& title);

/// Auxiliary diagnostics per sweep point (evictions, modification misses).
util::Table render_sweep_diagnostics(const SweepResult& sweep,
                                     const std::string& title);

// ---- instrumented-run export (obs layer) ----

/// Stable machine key for a document class ("images", "html",
/// "multi_media", "application", "other"); used in the metrics JSON/CSV.
std::string class_slug(trace::DocumentClass c);

/// Serializes an instrumented run — the aggregate SimResult plus the
/// windowed time series — as a single JSON document, schema
/// "webcache.metrics.v1": run header, aggregate overall/per-class hit
/// counters (a single cache has no fault totals), and one record per
/// window (flow counters and occupancy per class, admission rejections,
/// occupancy/heap snapshot, aging L and beta traces; absent probes
/// serialize as null). Validated by the CLI smoke test and the golden
/// harness.
void write_metrics_json(std::ostream& os, const SimResult& result,
                        const obs::MetricsSeries& series);

/// Hierarchy runs: same schema and windows array, "mode": "hierarchy", and
/// a level-split aggregate (offered/edge/sibling/root counters plus the
/// fault totals). Warm-up curves name edges by index and the root "root".
void write_hierarchy_metrics_json(std::ostream& os,
                                  const HierarchyResult& result,
                                  const obs::MetricsSeries& series);

/// Flat CSV: one row per window, per-class columns prefixed with the class
/// slug (the flow counters of every class, then each class's occupancy
/// objects and bytes); absent aging/beta (and availability on fault-free
/// runs) are empty cells.
void write_metrics_csv(std::ostream& os, const obs::MetricsSeries& series);

/// Serializes a full cache-size sweep as one JSON document, schema
/// "webcache.sweep.v1": one record per sweep point (fraction, capacity in
/// bytes) with one entry per policy column carrying the overall and
/// per-class hit counters plus the eviction/modification diagnostics.
/// Consumed by the CLI's `sweep --curve-out=FILE` and its smoke test; the
/// numbers are exact counters, so two runs that simulated identically
/// produce byte-identical documents.
void write_sweep_json(std::ostream& os, const SweepResult& sweep);

}  // namespace webcache::sim
