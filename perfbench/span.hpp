// In-memory span recorder for the benchmark's traced run.
//
// A span brackets one call into a library layer: its name, start and end
// (steady clock, nanoseconds since the recorder was created), the span that
// was open when it began (its parent) and the run it belongs to. Spans stay
// in memory while the run executes and are written out once, as JSON, when
// it ends, so recording a span costs two clock reads and a vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  std::size_t open(std::string name) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(Span{std::move(name), parent, now_ns(), -1, {}});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes span `index`, which must be the innermost open one.
  void close(std::size_t index) {
    if (open_.empty() || open_.back() != index) {
      throw std::logic_error("span closed out of order: " +
                             spans_[index].name);
    }
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Attaches a measured count (evictions, bytes, ...) to a span.
  void annotate(std::size_t index, std::string key, double value) {
    spans_[index].attrs.emplace_back(std::move(key), value);
  }

  /// Runs fn() inside a span named `name`; returns the span's index.
  template <typename Fn>
  std::size_t time(std::string name, Fn&& fn) {
    const std::size_t index = open(std::move(name));
    fn();
    close(index);
    return index;
  }

  void write_json(std::ostream& os) const {
    const auto precision = os.precision(17);
    os << "{\"run\": \"" << escaped(run_id_) << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
         << escaped(s.name) << "\", \"parent\": " << s.parent
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"attrs\": {";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        os << (a == 0 ? "" : ", ") << "\"" << escaped(s.attrs[a].first)
           << "\": " << s.attrs[a].second;
      }
      os << "}}";
    }
    os << "\n]}\n";
    os.precision(precision);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t parent;  // index of the enclosing span, -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;  // -1 while open
    std::vector<std::pair<std::string, double>> attrs;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
