#include "sim/faults.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace webcache::sim {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEdgeCrash:
      return "edge-crash";
    case FaultKind::kEdgeRecover:
      return "edge-recover";
    case FaultKind::kRootOutage:
      return "root-outage";
    case FaultKind::kRootRecover:
      return "root-recover";
    case FaultKind::kProbeDegrade:
      return "probe-degrade";
    case FaultKind::kProbeRestore:
      return "probe-restore";
  }
  return "?";
}

namespace {

[[noreturn]] void parse_fail(std::uint64_t line, const std::string& what) {
  throw std::invalid_argument("fault schedule line " + std::to_string(line) +
                              ": " + what);
}

bool parse_kind(const std::string& word, FaultKind& kind, bool& needs_node) {
  struct Entry {
    FaultKind kind;
    bool needs_node;
  };
  static const struct {
    const char* word;
    Entry entry;
  } kTable[] = {
      {"edge-crash", {FaultKind::kEdgeCrash, true}},
      {"edge-recover", {FaultKind::kEdgeRecover, true}},
      {"root-outage", {FaultKind::kRootOutage, false}},
      {"root-recover", {FaultKind::kRootRecover, false}},
      {"probe-degrade", {FaultKind::kProbeDegrade, true}},
      {"probe-restore", {FaultKind::kProbeRestore, true}},
  };
  for (const auto& row : kTable) {
    if (word == row.word) {
      kind = row.entry.kind;
      needs_node = row.entry.needs_node;
      return true;
    }
  }
  return false;
}

std::uint64_t parse_u64(const std::string& word, std::uint64_t line,
                        const char* what) {
  if (word.empty() ||
      !std::all_of(word.begin(), word.end(),
                   [](unsigned char c) { return std::isdigit(c) != 0; })) {
    parse_fail(line, std::string(what) + " must be a non-negative integer, "
                         "got '" + word + "'");
  }
  try {
    return std::stoull(word);
  } catch (const std::out_of_range&) {
    parse_fail(line, std::string(what) + " out of range: '" + word + "'");
  }
}

}  // namespace

FaultSchedule parse_fault_schedule(std::istream& in) {
  FaultSchedule schedule;
  std::string line;
  std::uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // blank / comment-only line

    if (std::isdigit(static_cast<unsigned char>(first[0])) != 0) {
      FaultEvent event;
      event.at_request = parse_u64(first, line_number, "request index");
      if (event.at_request == 0) {
        parse_fail(line_number, "request index is 1-based, got 0");
      }
      std::string kind_word;
      if (!(tokens >> kind_word)) {
        parse_fail(line_number, "missing event kind");
      }
      bool needs_node = false;
      if (!parse_kind(kind_word, event.kind, needs_node)) {
        parse_fail(line_number, "unknown event kind '" + kind_word + "'");
      }
      std::string node_word;
      const bool has_node = static_cast<bool>(tokens >> node_word);
      if (needs_node && !has_node) {
        parse_fail(line_number,
                   std::string(to_string(event.kind)) + " needs a node index");
      }
      if (!needs_node && has_node) {
        parse_fail(line_number,
                   std::string(to_string(event.kind)) + " takes no node");
      }
      if (needs_node) {
        const std::uint64_t node =
            parse_u64(node_word, line_number, "node index");
        if (node > 0xfffffffeULL) {
          parse_fail(line_number, "node index out of range: '" + node_word +
                                      "'");
        }
        event.node = static_cast<std::uint32_t>(node);
      }
      std::string extra;
      if (tokens >> extra) {
        parse_fail(line_number, "trailing token '" + extra + "'");
      }
      schedule.events.push_back(event);
      continue;
    }

    // Directive line.
    std::string value;
    if (!(tokens >> value)) {
      parse_fail(line_number, "directive '" + first + "' needs a value");
    }
    std::string extra;
    if (tokens >> extra) {
      parse_fail(line_number, "trailing token '" + extra + "'");
    }
    if (first == "max-probe-retries") {
      const std::uint64_t v = parse_u64(value, line_number, first.c_str());
      if (v > kMaxProbeRetries) {
        parse_fail(line_number, "max-probe-retries must be at most " +
                                    std::to_string(kMaxProbeRetries) +
                                    ", got " + value);
      }
      schedule.max_probe_retries = static_cast<std::uint32_t>(v);
    } else if (first == "probe-timeout-rate") {
      double rate = 0.0;
      try {
        std::size_t consumed = 0;
        rate = std::stod(value, &consumed);
        if (consumed != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        parse_fail(line_number, "probe-timeout-rate must be a number, got '" +
                                    value + "'");
      }
      if (!(rate >= 0.0 && rate <= 1.0)) {
        parse_fail(line_number, "probe-timeout-rate must be in [0, 1]");
      }
      schedule.probe_timeout_rate = rate;
    } else if (first == "seed") {
      schedule.seed = parse_u64(value, line_number, "seed");
    } else {
      parse_fail(line_number, "unknown directive '" + first + "'");
    }
  }
  return schedule;
}

FaultSchedule load_fault_schedule_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open fault schedule: " + path);
  }
  return parse_fault_schedule(in);
}

FaultRun::FaultRun(const FaultSchedule& schedule, std::uint32_t node_count)
    : events_(schedule.events),
      node_count_(node_count),
      up_count_(node_count),
      max_probe_retries_(schedule.max_probe_retries),
      probe_timeout_rate_(schedule.probe_timeout_rate),
      seed_(schedule.seed),
      node_up_(node_count, 1),
      degraded_(node_count, 0) {
  if (node_count == 0) {
    throw std::invalid_argument("FaultRun: mesh has no nodes");
  }
  if (!(schedule.probe_timeout_rate >= 0.0 &&
        schedule.probe_timeout_rate <= 1.0)) {
    throw std::invalid_argument("FaultRun: probe_timeout_rate out of [0, 1]");
  }
  if (schedule.max_probe_retries > kMaxProbeRetries) {
    throw std::invalid_argument("FaultRun: max_probe_retries above " +
                                std::to_string(kMaxProbeRetries));
  }
  for (const FaultEvent& ev : events_) {
    if (ev.at_request == 0) {
      throw std::invalid_argument(
          "FaultRun: event request indices are 1-based");
    }
    const bool root_event = ev.kind == FaultKind::kRootOutage ||
                            ev.kind == FaultKind::kRootRecover;
    if (!root_event && ev.node >= node_count_) {
      throw std::invalid_argument(
          std::string("FaultRun: ") + to_string(ev.kind) + " node " +
          std::to_string(ev.node) + " out of range (mesh has " +
          std::to_string(node_count_) + " nodes)");
    }
  }
  // Stable: same-index events keep schedule-file order.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_request < b.at_request;
                   });
}

}  // namespace webcache::sim
