#include "sim/reporter.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <iomanip>
#include <ostream>

#include "util/format.hpp"

namespace webcache::sim {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

std::vector<std::string> policy_header(const SweepResult& sweep) {
  std::vector<std::string> header = {"Cache (MB)", "Cache (%)"};
  if (!sweep.points.empty()) {
    for (const SimResult& r : sweep.points.front().results) {
      header.push_back(r.policy_name);
    }
  }
  return header;
}

void add_sweep_rows(util::Table& table, const SweepResult& sweep,
                    const std::function<double(const SimResult&)>& metric) {
  for (const SweepPoint& point : sweep.points) {
    std::vector<std::string> row;
    row.push_back(util::fmt_fixed(
        static_cast<double>(point.capacity_bytes) / kMB, 1));
    row.push_back(util::fmt_fixed(point.cache_fraction * 100.0, 1));
    for (const SimResult& r : point.results) {
      row.push_back(util::fmt_fixed(metric(r), 4));
    }
    table.add_row(row);
  }
}

}  // namespace

util::Table render_sweep_panel(const SweepResult& sweep,
                               trace::DocumentClass doc_class, Metric metric,
                               const std::string& title) {
  util::Table table(title);
  table.set_header(policy_header(sweep));
  add_sweep_rows(table, sweep, [=](const SimResult& r) {
    const HitCounters& c = r.of(doc_class);
    return metric == Metric::kHitRate ? c.hit_rate() : c.byte_hit_rate();
  });
  return table;
}

util::Table render_sweep_overall(const SweepResult& sweep, Metric metric,
                                 const std::string& title) {
  util::Table table(title);
  table.set_header(policy_header(sweep));
  add_sweep_rows(table, sweep, [=](const SimResult& r) {
    return metric == Metric::kHitRate ? r.overall.hit_rate()
                                      : r.overall.byte_hit_rate();
  });
  return table;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_optional(std::ostream& os, const std::optional<double>& value) {
  if (value.has_value()) {
    os << *value;
  } else {
    os << "null";
  }
}

void write_hit_counters_json(std::ostream& os, const HitCounters& c) {
  os << "{\"requests\": " << c.requests << ", \"hits\": " << c.hits
     << ", \"requested_bytes\": " << c.requested_bytes
     << ", \"hit_bytes\": " << c.hit_bytes
     << ", \"hit_rate\": " << c.hit_rate()
     << ", \"byte_hit_rate\": " << c.byte_hit_rate() << "}";
}

void write_window_counter_fields(std::ostream& os,
                                 const obs::WindowCounters& c) {
  os << "\"requests\": " << c.requests << ", \"hits\": " << c.hits
     << ", \"requested_bytes\": " << c.requested_bytes
     << ", \"hit_bytes\": " << c.hit_bytes
     << ", \"evictions\": " << c.evictions
     << ", \"evicted_bytes\": " << c.evicted_bytes
     << ", \"lost\": " << c.lost << ", \"lost_bytes\": " << c.lost_bytes;
}

void write_window_counters_json(std::ostream& os,
                                const obs::WindowCounters& c) {
  os << "{";
  write_window_counter_fields(os, c);
  os << "}";
}

void write_fault_stats_json(std::ostream& os, const FaultStats& f) {
  os << "{\"events_applied\": " << f.events_applied
     << ", \"failovers\": " << f.failovers
     << ", \"lost_requests\": " << f.lost_requests
     << ", \"lost_bytes\": " << f.lost_bytes
     << ", \"probe_timeouts\": " << f.probe_timeouts
     << ", \"origin_fetches\": " << f.origin_fetches << "}";
}

// The node id in warm-up curves: "root" for the hierarchy root, the edge
// (or partition/document-class) index otherwise.
void write_node_json(std::ostream& os, std::uint32_t node) {
  if (node == obs::kRootNode) {
    os << "\"root\"";
  } else {
    os << node;
  }
}

// Emits the fault series ("fault_nodes" + "warmup_curves") and the
// "windows" array — the part of the document shared by the single-cache
// and hierarchy exporters. Window records carry the fault feed
// (failovers/probe_timeouts/fault_events/availability) additively;
// availability is null on uninstrumented runs.
void write_series_json(std::ostream& os, const obs::MetricsSeries& series) {
  os << "  \"fault_nodes\": " << series.fault_nodes << ",\n"
     << "  \"warmup_curves\": [";
  for (std::size_t i = 0; i < series.warmup_curves.size(); ++i) {
    const obs::WarmupCurve& curve = series.warmup_curves[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"node\": ";
    write_node_json(os, curve.node);
    os << ", \"recovered_at\": " << curve.recovered_at
       << ", \"windows\": [";
    for (std::size_t w = 0; w < curve.windows.size(); ++w) {
      const obs::WarmupWindow& win = curve.windows[w];
      os << (w == 0 ? "\n" : ",\n") << "      {\"overall\": ";
      write_window_counters_json(os, win.overall);
      os << ", \"hit_rate\": " << win.overall.hit_rate()
         << ",\n       \"per_class\": {";
      bool first_cls = true;
      for (const auto cls : trace::kAllDocumentClasses) {
        os << (first_cls ? "" : ", ") << "\"" << class_slug(cls) << "\": ";
        write_window_counters_json(
            os, win.per_class[static_cast<std::size_t>(cls)]);
        first_cls = false;
      }
      os << "}}";
    }
    os << (curve.windows.empty() ? "]}" : "\n    ]}");
  }
  os << (series.warmup_curves.empty() ? "],\n" : "\n  ],\n");

  os << "  \"windows\": [";
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const obs::WindowSample& w = series.windows[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"first_request\": "
       << w.first_request << ", \"last_request\": " << w.last_request
       << ",\n     \"overall\": ";
    write_window_counters_json(os, w.overall);
    os << ",\n     \"hit_rate\": " << w.overall.hit_rate()
       << ", \"byte_hit_rate\": " << w.overall.byte_hit_rate()
       << ", \"bypasses\": " << w.bypasses
       << ", \"invalidations\": " << w.invalidations
       << ",\n     \"failovers\": " << w.failovers
       << ", \"probe_timeouts\": " << w.probe_timeouts
       << ", \"fault_events\": " << w.fault_events << ", \"availability\": ";
    write_optional(os, w.availability(series.fault_nodes));
    const cache::Occupancy& occ = w.state.occupancy;
    os << ",\n     \"occupancy_bytes\": " << occ.total_bytes
       << ", \"occupancy_objects\": " << occ.total_objects
       << ", \"heap_entries\": " << w.state.heap_entries << ", \"aging\": ";
    write_optional(os, w.state.aging);
    os << ", \"beta\": ";
    write_optional(os, w.state.beta);
    os << ",\n     \"per_class\": {";
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      os << (c == 0 ? "" : ", ") << "\""
         << class_slug(trace::kAllDocumentClasses[c]) << "\": {";
      write_window_counter_fields(os, w.per_class[c]);
      os << ", \"occupancy_objects\": " << occ.objects[c]
         << ", \"occupancy_bytes\": " << occ.bytes[c] << "}";
    }
    os << "}}";
  }
  os << "\n  ]\n";
}

}  // namespace

std::string class_slug(trace::DocumentClass c) {
  std::string slug(trace::to_string(c));
  std::transform(slug.begin(), slug.end(), slug.begin(), [](unsigned char ch) {
    return ch == ' ' ? '_' : static_cast<char>(std::tolower(ch));
  });
  return slug;
}

void write_metrics_json(std::ostream& os, const SimResult& result,
                        const obs::MetricsSeries& series) {
  os << std::setprecision(12);
  os << "{\n"
     << "  \"schema\": \"webcache.metrics.v1\",\n"
     << "  \"policy\": \"" << json_escape(result.policy_name) << "\",\n"
     << "  \"capacity_bytes\": " << result.capacity_bytes << ",\n"
     << "  \"window_requests\": " << series.window_requests << ",\n"
     << "  \"total_requests\": " << series.total_requests << ",\n"
     << "  \"warmup_requests\": " << result.warmup_requests << ",\n"
     << "  \"measured_requests\": " << result.measured_requests << ",\n";

  os << "  \"aggregate\": {\n    \"overall\": ";
  write_hit_counters_json(os, result.overall);
  os << ",\n    \"evictions\": " << result.evictions
     << ",\n    \"bypasses\": " << result.bypasses
     << ",\n    \"modification_misses\": " << result.modification_misses
     << ",\n    \"per_class\": {";
  bool first = true;
  for (const auto cls : trace::kAllDocumentClasses) {
    os << (first ? "\n" : ",\n") << "      \"" << class_slug(cls) << "\": ";
    write_hit_counters_json(os, result.of(cls));
    first = false;
  }
  os << "\n    }\n  },\n";

  write_series_json(os, series);
  os << "}\n";
}

void write_hierarchy_metrics_json(std::ostream& os,
                                  const HierarchyResult& result,
                                  const obs::MetricsSeries& series) {
  os << std::setprecision(12);
  os << "{\n"
     << "  \"schema\": \"webcache.metrics.v1\",\n"
     << "  \"mode\": \"hierarchy\",\n"
     << "  \"window_requests\": " << series.window_requests << ",\n"
     << "  \"total_requests\": " << series.total_requests << ",\n";

  os << "  \"aggregate\": {\n    \"offered\": ";
  write_hit_counters_json(os, result.offered);
  os << ",\n    \"edge\": ";
  write_hit_counters_json(os, result.edge_hits);
  os << ",\n    \"sibling\": ";
  write_hit_counters_json(os, result.sibling_hits);
  os << ",\n    \"root\": ";
  write_hit_counters_json(os, result.root_hits);
  os << ",\n    \"root_requests\": " << result.root_requests
     << ",\n    \"edge_evictions\": " << result.edge_evictions
     << ",\n    \"root_evictions\": " << result.root_evictions
     << ",\n    \"combined_hit_rate\": " << result.combined_hit_rate()
     << ",\n    \"combined_byte_hit_rate\": "
     << result.combined_byte_hit_rate()
     << ",\n    \"faults\": ";
  write_fault_stats_json(os, result.faults);
  os << ",\n    \"edge_per_class\": {";
  bool first = true;
  for (const auto cls : trace::kAllDocumentClasses) {
    os << (first ? "\n" : ",\n") << "      \"" << class_slug(cls) << "\": ";
    write_hit_counters_json(
        os, result.edge_per_class[static_cast<std::size_t>(cls)]);
    first = false;
  }
  os << "\n    },\n    \"root_per_class\": {";
  first = true;
  for (const auto cls : trace::kAllDocumentClasses) {
    os << (first ? "\n" : ",\n") << "      \"" << class_slug(cls) << "\": ";
    write_hit_counters_json(
        os, result.root_per_class[static_cast<std::size_t>(cls)]);
    first = false;
  }
  os << "\n    }\n  },\n";

  write_series_json(os, series);
  os << "}\n";
}

void write_metrics_csv(std::ostream& os, const obs::MetricsSeries& series) {
  os << std::setprecision(12);
  os << "first_request,last_request,requests,hits,requested_bytes,hit_bytes,"
        "hit_rate,byte_hit_rate,evictions,evicted_bytes,bypasses,"
        "invalidations,lost,lost_bytes,failovers,probe_timeouts,"
        "fault_events,availability,occupancy_bytes,occupancy_objects,"
        "heap_entries,aging,beta";
  for (const auto cls : trace::kAllDocumentClasses) {
    const std::string slug = class_slug(cls);
    for (const char* field :
         {"requests", "hits", "requested_bytes", "hit_bytes", "evictions",
          "evicted_bytes", "lost"}) {
      os << "," << slug << "_" << field;
    }
  }
  for (const auto cls : trace::kAllDocumentClasses) {
    const std::string slug = class_slug(cls);
    os << "," << slug << "_occupancy_objects," << slug << "_occupancy_bytes";
  }
  os << "\n";
  for (const obs::WindowSample& w : series.windows) {
    os << w.first_request << "," << w.last_request << ","
       << w.overall.requests << "," << w.overall.hits << ","
       << w.overall.requested_bytes << "," << w.overall.hit_bytes << ","
       << w.overall.hit_rate() << "," << w.overall.byte_hit_rate() << ","
       << w.overall.evictions << "," << w.overall.evicted_bytes << ","
       << w.bypasses << "," << w.invalidations << "," << w.overall.lost
       << "," << w.overall.lost_bytes << "," << w.failovers << ","
       << w.probe_timeouts << "," << w.fault_events << ",";
    if (const auto avail = w.availability(series.fault_nodes)) os << *avail;
    const cache::Occupancy& occ = w.state.occupancy;
    os << "," << occ.total_bytes << "," << occ.total_objects << ","
       << w.state.heap_entries << ",";
    if (w.state.aging) os << *w.state.aging;
    os << ",";
    if (w.state.beta) os << *w.state.beta;
    for (const obs::WindowCounters& c : w.per_class) {
      os << "," << c.requests << "," << c.hits << "," << c.requested_bytes
         << "," << c.hit_bytes << "," << c.evictions << ","
         << c.evicted_bytes << "," << c.lost;
    }
    for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
      os << "," << occ.objects[c] << "," << occ.bytes[c];
    }
    os << "\n";
  }
}

void write_sweep_json(std::ostream& os, const SweepResult& sweep) {
  os << std::setprecision(17);
  os << "{\n"
     << "  \"schema\": \"webcache.sweep.v1\",\n"
     << "  \"overall_size_bytes\": " << sweep.overall_size_bytes << ",\n";
  // Additive extension: only sampled sweeps carry the sampling block and
  // per-cell error bars, so exact sweeps stay byte-identical to the
  // pre-sampling writer.
  if (sweep.sampled) {
    os << "  \"sampling\": {\"rate\": " << sweep.sample_rate
       << ", \"seed\": " << sweep.sample_seed << "},\n";
  }
  os << "  \"points\": [";
  for (std::size_t p = 0; p < sweep.points.size(); ++p) {
    const SweepPoint& point = sweep.points[p];
    os << (p == 0 ? "\n" : ",\n")
       << "    {\"cache_fraction\": " << point.cache_fraction
       << ", \"capacity_bytes\": " << point.capacity_bytes
       << ",\n     \"policies\": [";
    for (std::size_t i = 0; i < point.results.size(); ++i) {
      const SimResult& r = point.results[i];
      os << (i == 0 ? "\n" : ",\n") << "      {\"policy\": \""
         << json_escape(r.policy_name) << "\",\n       \"overall\": ";
      write_hit_counters_json(os, r.overall);
      os << ",\n       \"evictions\": " << r.evictions
         << ", \"modification_misses\": " << r.modification_misses
         << ", \"interrupted_transfers\": " << r.interrupted_transfers
         << ", \"bypasses\": " << r.bypasses
         << ",\n       \"mean_latency_ms\": " << r.mean_latency_ms();
      if (i < point.estimates.size() && point.estimates[i].sampled) {
        os << ",\n       \"sampled\": true, \"hit_rate_error\": "
           << point.estimates[i].hit_rate_error
           << ", \"byte_hit_rate_error\": "
           << point.estimates[i].byte_hit_rate_error;
      }
      os << ",\n       \"per_class\": {";
      bool first_cls = true;
      for (const auto cls : trace::kAllDocumentClasses) {
        os << (first_cls ? "" : ", ") << "\"" << class_slug(cls) << "\": ";
        write_hit_counters_json(os, r.of(cls));
        first_cls = false;
      }
      os << "}}";
    }
    os << (point.results.empty() ? "]}" : "\n    ]}");
  }
  os << (sweep.points.empty() ? "]\n" : "\n  ]\n") << "}\n";
}

util::Table render_sweep_diagnostics(const SweepResult& sweep,
                                     const std::string& title) {
  util::Table table(title);
  std::vector<std::string> header = {"Cache (MB)", "Policy", "Evictions",
                                     "Mod. misses", "Interrupts", "Bypasses"};
  table.set_header(header);
  for (const SweepPoint& point : sweep.points) {
    for (const SimResult& r : point.results) {
      table.add_row({util::fmt_fixed(
                         static_cast<double>(point.capacity_bytes) / kMB, 1),
                     r.policy_name, util::fmt_count(r.evictions),
                     util::fmt_count(r.modification_misses),
                     util::fmt_count(r.interrupted_transfers),
                     util::fmt_count(r.bypasses)});
    }
  }
  return table;
}

}  // namespace webcache::sim
