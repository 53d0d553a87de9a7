// The size-change column: a DenseTrace flags each request whose transfer
// size differs from its document's previous one and stores that previous
// size, once, at load. Every replay classifies the paper's modification
// rule from the flag and the column, so the column must give exactly what
// a per-document last-size walk gives, for every rule and threshold, and
// a replay must consume it exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/factory.hpp"
#include "sim/hierarchy.hpp"
#include "sim/last_size.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "trace/dense_trace.hpp"
#include "util/rng.hpp"

namespace webcache::sim {
namespace {

using trace::ClientColumn;
using trace::DenseTrace;
using trace::ReplayRecord;

trace::Request request(trace::DocumentId doc, std::uint64_t size) {
  trace::Request r;
  r.document = doc;
  r.doc_class = trace::DocumentClass::kHtml;
  r.document_size = r.transfer_size = size;
  r.client = static_cast<std::uint32_t>(doc);
  return r;
}

/// Requests over a few dozen documents whose sizes move by small steps
/// (modifications at 5 %), large ones (interrupted transfers) and to and
/// from 0, with repeats of the same size in between.
trace::Trace random_trace(util::Rng& rng, std::size_t n) {
  trace::Trace t;
  std::unordered_map<trace::DocumentId, std::uint64_t> size;
  for (std::size_t i = 0; i < n; ++i) {
    const trace::DocumentId doc = 1000 + rng.below(40);
    auto [it, fresh] = size.try_emplace(doc, 1 + rng.below(100000));
    std::uint64_t& s = it->second;
    if (!fresh) {
      switch (rng.below(6)) {
        case 0:  // up by 0.5 % to 100 %: either side of each threshold
          s += 1 + s / (1 + rng.below(200));
          break;
        case 1:  // down to a half or less
          s = s / (2 + rng.below(8));
          break;
        case 2:
          s = 0;
          break;
        case 3:
          s = s == 0 ? 1 + rng.below(5000) : s * (2 + rng.below(3));
          break;
        default:  // the same size again
          break;
      }
    }
    t.requests.push_back(request(doc, s));
  }
  return t;
}

/// What a replay saw before the column: each document's last transfer
/// size, classified on every request after its first.
std::vector<detail::SizeChange> last_size_walk(const trace::Trace& t,
                                               const SimulatorOptions& o) {
  std::unordered_map<trace::DocumentId, std::uint64_t> last;
  std::vector<detail::SizeChange> out;
  for (const trace::Request& r : t.requests) {
    detail::SizeChange change;
    const auto [it, first] = last.try_emplace(r.document, r.transfer_size);
    if (!first) {
      change = detail::classify_size_change(it->second, r.transfer_size, o);
      it->second = r.transfer_size;
    }
    out.push_back(change);
  }
  return out;
}

/// The materialized replays' reading: the flag and the column.
std::vector<detail::SizeChange> column_walk(const DenseTrace& t,
                                            const SimulatorOptions& o) {
  std::vector<detail::SizeChange> out;
  trace::PreviousSizeCursor previous(t);
  for (const ReplayRecord& r : t.records) {
    detail::SizeChange change;
    const std::uint64_t prev = previous.take(r);
    if (r.size_changed) {
      change = detail::classify_size_change(prev, r.transfer_size, o);
    }
    out.push_back(change);
  }
  previous.expect_end();
  return out;
}

TEST(SizeChangeColumn, FlagsAndPreviousSizesOfAHandTrace) {
  trace::Trace t;
  for (const auto& [doc, size] :
       std::vector<std::pair<trace::DocumentId, std::uint64_t>>{
           {7, 100}, {9, 50}, {7, 100}, {7, 104}, {9, 0}, {7, 200}, {9, 0}}) {
    t.requests.push_back(request(doc, size));
  }
  const DenseTrace dense = trace::densify(t);
  std::vector<bool> flags;
  for (const ReplayRecord& r : dense.records) flags.push_back(r.size_changed);
  EXPECT_EQ(flags,
            (std::vector<bool>{false, false, false, true, true, true, false}));
  EXPECT_EQ(dense.previous_sizes, (std::vector<std::uint64_t>{100, 50, 104}));
}

TEST(SizeChangeColumn, MatchesALastSizeWalkForEveryRuleAndThreshold) {
  util::Rng rng(31);
  std::uint64_t modified = 0;
  std::uint64_t interrupted = 0;
  for (int round = 0; round < 20; ++round) {
    const trace::Trace t = random_trace(rng, 2000);
    const DenseTrace dense = trace::densify(t);
    std::uint64_t flagged = 0;
    for (const ReplayRecord& r : dense.records) flagged += r.size_changed;
    ASSERT_EQ(flagged, dense.previous_sizes.size());

    for (const ModificationRule rule :
         {ModificationRule::kThreshold, ModificationRule::kAnyChange,
          ModificationRule::kNever}) {
      for (const double threshold : {0.01, 0.05, 0.5}) {
        SimulatorOptions o;
        o.modification_rule = rule;
        o.modification_threshold = threshold;
        const auto expected = last_size_walk(t, o);
        const auto got = column_walk(dense, o);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].modified, expected[i].modified)
              << "round " << round << " rule " << static_cast<int>(rule)
              << " threshold " << threshold << " record " << i;
          ASSERT_EQ(got[i].interrupted, expected[i].interrupted)
              << "round " << round << " rule " << static_cast<int>(rule)
              << " threshold " << threshold << " record " << i;
          if (rule == ModificationRule::kThreshold && threshold == 0.05) {
            modified += got[i].modified;
            interrupted += got[i].interrupted;
          }
        }
      }
    }
  }
  // The traces exercise both outcomes of the paper's rule.
  EXPECT_GT(modified, 100u);
  EXPECT_GT(interrupted, 100u);
}

TEST(SizeChangeColumn, StreamTrackerGivesTheSamePairs) {
  // The stream's batch layer derives the flag and previous size from a
  // DenseLastSize; it must hand the core what the column holds.
  util::Rng rng(32);
  const DenseTrace dense = trace::densify(random_trace(rng, 5000));
  detail::DenseLastSize last;
  last.grow(dense.document_count());
  trace::PreviousSizeCursor previous(dense);
  for (std::size_t i = 0; i < dense.records.size(); ++i) {
    ReplayRecord r = dense.records[i];
    r.size_changed = false;
    const std::uint64_t from_tracker = last.mark(r);
    ASSERT_EQ(r.size_changed, dense.records[i].size_changed) << "record " << i;
    if (r.size_changed) {
      ASSERT_EQ(from_tracker, previous.take(dense.records[i])) << "record " << i;
    }
  }
  previous.expect_end();
}

DenseTrace generated_trace(ClientColumn clients) {
  synth::GeneratorOptions gen;
  gen.seed = 11;
  return trace::densify(
      synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002), gen)
          .generate(),
      clients);
}

HierarchyConfig lru_mesh(std::uint64_t capacity) {
  HierarchyConfig config;
  config.edge_capacity_bytes = capacity;
  config.edge_policy = cache::policy_spec_from_name("LRU");
  config.root_capacity_bytes = capacity;
  config.root_policy = config.edge_policy;
  return config;
}

/// The message of the std::logic_error `run` throws, or "" if none.
template <typename Run>
std::string logic_error_of(Run&& run) {
  try {
    run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(SizeChangeColumn, ReplayRejectsAColumnWithEntriesLeft) {
  DenseTrace t = generated_trace(ClientColumn::kLoad);
  ASSERT_FALSE(t.previous_sizes.empty());
  t.previous_sizes.push_back(1234);
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const auto spec = cache::policy_spec_from_name("GD*(1)");
  EXPECT_NE(logic_error_of([&] { simulate(t, capacity, spec); })
                .find("previous_sizes has more entries than size-changed "
                      "records (1 left)"),
            std::string::npos);
  const HierarchyConfig config = lru_mesh(capacity);
  EXPECT_NE(logic_error_of([&] { simulate_hierarchy(t, config); })
                .find("previous_sizes has more entries"),
            std::string::npos);
}

TEST(SizeChangeColumn, ReplayRejectsAColumnThatRunsOut) {
  DenseTrace t = generated_trace(ClientColumn::kLoad);
  ASSERT_FALSE(t.previous_sizes.empty());
  t.previous_sizes.pop_back();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  EXPECT_NE(logic_error_of([&] {
              simulate(t, capacity, cache::policy_spec_from_name("LRU"));
            }).find("previous_sizes ends before the last size-changed record"),
            std::string::npos);
  const HierarchyConfig config = lru_mesh(capacity);
  EXPECT_NE(logic_error_of([&] { simulate_hierarchy(t, config); })
                .find("previous_sizes ends before"),
            std::string::npos);
}

}  // namespace
}  // namespace webcache::sim
