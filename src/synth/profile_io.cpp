#include "synth/profile_io.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace webcache::synth {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Strict numeric parsing for trimmed values: the whole value must be the
// number, so "12abc" is an error, not 12. Throws std::invalid_argument
// (reported as "bad number") or std::out_of_range.
double whole_number(const std::string& value) {
  std::size_t used = 0;
  const double parsed = std::stod(value, &used);
  if (used != value.size()) throw std::invalid_argument(value);
  return parsed;
}

// As whole_number, for counts: stoull would wrap "-1" to 2^64 - 1.
std::uint64_t whole_count(const std::string& value) {
  if (!value.empty() && value.front() == '-') {
    throw std::invalid_argument(value);
  }
  std::size_t used = 0;
  const std::uint64_t parsed = std::stoull(value, &used);
  if (used != value.size()) throw std::invalid_argument(value);
  return parsed;
}

/// Full-precision double rendering that round-trips through stod.
std::string render(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

trace::DocumentClass class_by_name(const std::string& name, int line) {
  for (const auto cls : trace::kAllDocumentClasses) {
    if (name == std::string(trace::to_string(cls))) return cls;
  }
  throw std::runtime_error("profile: unknown class section [" + name +
                           "] at line " + std::to_string(line));
}

using FieldSetter = void (*)(ClassProfile&, double);

const std::map<std::string, FieldSetter>& class_fields() {
  static const std::map<std::string, FieldSetter> fields = {
      {"distinct_fraction",
       [](ClassProfile& c, double v) { c.distinct_fraction = v; }},
      {"request_fraction",
       [](ClassProfile& c, double v) { c.request_fraction = v; }},
      {"size_mean_bytes",
       [](ClassProfile& c, double v) { c.size_mean_bytes = v; }},
      {"size_median_bytes",
       [](ClassProfile& c, double v) { c.size_median_bytes = v; }},
      {"tail_fraction", [](ClassProfile& c, double v) { c.tail_fraction = v; }},
      {"tail_shape", [](ClassProfile& c, double v) { c.tail_shape = v; }},
      {"tail_lo_bytes", [](ClassProfile& c, double v) { c.tail_lo_bytes = v; }},
      {"tail_hi_bytes", [](ClassProfile& c, double v) { c.tail_hi_bytes = v; }},
      {"alpha", [](ClassProfile& c, double v) { c.alpha = v; }},
      {"beta", [](ClassProfile& c, double v) { c.beta = v; }},
      {"correlation_probability",
       [](ClassProfile& c, double v) { c.correlation_probability = v; }},
      {"modification_probability",
       [](ClassProfile& c, double v) { c.modification_probability = v; }},
      {"interrupt_probability",
       [](ClassProfile& c, double v) { c.interrupt_probability = v; }},
  };
  return fields;
}

}  // namespace

std::string profile_to_text(const WorkloadProfile& profile) {
  std::ostringstream out;
  out << "# webcache workload profile\n";
  out << "name = " << profile.name << "\n";
  out << "distinct_documents = " << profile.distinct_documents << "\n";
  out << "total_requests = " << profile.total_requests << "\n";
  out << "mean_interarrival_ms = " << render(profile.mean_interarrival_ms)
      << "\n";
  for (const auto cls : trace::kAllDocumentClasses) {
    const ClassProfile& c = profile.of(cls);
    out << "\n[" << trace::to_string(cls) << "]\n";
    out << "distinct_fraction = " << render(c.distinct_fraction) << "\n";
    out << "request_fraction = " << render(c.request_fraction) << "\n";
    out << "size_mean_bytes = " << render(c.size_mean_bytes) << "\n";
    out << "size_median_bytes = " << render(c.size_median_bytes) << "\n";
    out << "tail_fraction = " << render(c.tail_fraction) << "\n";
    out << "tail_shape = " << render(c.tail_shape) << "\n";
    out << "tail_lo_bytes = " << render(c.tail_lo_bytes) << "\n";
    out << "tail_hi_bytes = " << render(c.tail_hi_bytes) << "\n";
    out << "alpha = " << render(c.alpha) << "\n";
    out << "beta = " << render(c.beta) << "\n";
    out << "correlation_probability = " << render(c.correlation_probability)
        << "\n";
    out << "modification_probability = " << render(c.modification_probability)
        << "\n";
    out << "interrupt_probability = " << render(c.interrupt_probability)
        << "\n";
  }
  return out.str();
}

void save_profile_file(const std::string& path,
                       const WorkloadProfile& profile) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("profile: cannot open " + path);
  out << profile_to_text(profile);
  if (!out) throw std::runtime_error("profile: write failed for " + path);
}

WorkloadProfile profile_from_text(std::istream& in) {
  WorkloadProfile profile;
  // Start from an all-zero profile with correct class tags.
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    profile.classes[c] = ClassProfile{};
    profile.classes[c].doc_class = static_cast<trace::DocumentClass>(c);
  }

  ClassProfile* section = nullptr;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("profile: unterminated section at line " +
                                 std::to_string(line_number));
      }
      const trace::DocumentClass cls =
          class_by_name(trim(line.substr(1, line.size() - 2)), line_number);
      section = &profile.of(cls);
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("profile: expected key = value at line " +
                               std::to_string(line_number));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    try {
      if (section == nullptr) {
        if (key == "name") {
          profile.name = value;
        } else if (key == "distinct_documents") {
          profile.distinct_documents = whole_count(value);
        } else if (key == "total_requests") {
          profile.total_requests = whole_count(value);
        } else if (key == "mean_interarrival_ms") {
          profile.mean_interarrival_ms = whole_number(value);
        } else {
          throw std::runtime_error("profile: unknown top-level key '" + key +
                                   "' at line " + std::to_string(line_number));
        }
      } else {
        const auto it = class_fields().find(key);
        if (it == class_fields().end()) {
          throw std::runtime_error("profile: unknown class key '" + key +
                                   "' at line " + std::to_string(line_number));
        }
        it->second(*section, whole_number(value));
      }
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("profile: bad number '" + value +
                               "' at line " + std::to_string(line_number));
    } catch (const std::out_of_range&) {
      throw std::runtime_error("profile: number out of range at line " +
                               std::to_string(line_number));
    }
  }

  profile.validate();
  return profile;
}

WorkloadProfile load_profile_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("profile: cannot open " + path);
  return profile_from_text(in);
}

}  // namespace webcache::synth
