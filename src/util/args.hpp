// Minimal command-line argument parsing for the webcache CLI and the
// bench/example binaries.
//
// Supports --key=value and --flag forms. Anything else is collected as a
// positional argument. Unknown keys are tolerated (benchmark runners pass
// their own flags through). The numeric getters are strict: the whole
// value must parse, and get_uint rejects a leading '-'; a malformed value
// throws std::invalid_argument naming the flag. The parse_* functions
// apply the same rules to one element of a list flag (--fractions=A,B).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace webcache::util {

// Parse all of `value`, the value (or one list element) of flag --`key`.
std::uint64_t parse_uint(const std::string& key, const std::string& value);
double parse_double(const std::string& key, const std::string& value);

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace webcache::util
