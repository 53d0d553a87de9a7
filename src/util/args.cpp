#include "util/args.hpp"

#include <stdexcept>

namespace webcache::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

namespace {

// Parses all of `value` with `parse` (a std::sto* call that reports how
// many characters it consumed). An empty value, an unconsumed tail or a
// number out of range throws std::invalid_argument naming the flag, so
// `--cache-mb=4x` fails instead of running as 4.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& value,
                 const char* expected, Parse parse) {
  try {
    std::size_t used = 0;
    const auto parsed = parse(value, &used);
    if (used == value.size()) return parsed;
  } catch (const std::logic_error&) {
    // std::invalid_argument (no number at all) or std::out_of_range.
  }
  throw std::invalid_argument("--" + key + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  return parse_whole(key, value, "a non-negative integer",
                     [](const std::string& v, std::size_t* used) {
                       // stoull skips leading space and wraps "-1" to
                       // 2^64 - 1.
                       const auto first = v.find_first_not_of(" \t\n\v\f\r");
                       if (first != std::string::npos && v[first] == '-') {
                         throw std::invalid_argument("negative");
                       }
                       return std::stoull(v, used);
                     });
}

double parse_double(const std::string& key, const std::string& value) {
  return parse_whole(key, value, "a number",
                     [](const std::string& v, std::size_t* used) {
                       return std::stod(v, used);
                     });
}

std::int64_t Args::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "an integer",
                     [](const std::string& v, std::size_t* used) {
                       return std::stoll(v, used);
                     });
}

std::uint64_t Args::get_uint(const std::string& key,
                             std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_uint(key, it->second);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_double(key, it->second);
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Args: boolean flag --" + key +
                              " has non-boolean value '" + v + "'");
}

}  // namespace webcache::util
