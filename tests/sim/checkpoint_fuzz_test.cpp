// Checkpoint corruption fuzzing: every torn, truncated, bit-flipped or
// cross-wired checkpoint image must be *detectably* damaged — the decoder
// throws a diagnostic naming the failing layer (magic, version, a section's
// CRC), or the damage surfaces as a renamed/missing section that the resume
// path rejects by name. No corruption may ever restore silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "cache/list_policy.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/last_size.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/id_map.hpp"
#include "trace/request_stream.hpp"
#include "util/state_io.hpp"

namespace webcache::sim {
namespace {

namespace fs = std::filesystem;
using detail::CheckpointSection;

std::vector<CheckpointSection> sample_sections() {
  std::vector<CheckpointSection> sections;
  sections.push_back({"fingerprint", {0x01, 0x02, 0x03, 0x04, 0x05}});
  sections.push_back({"empty", {}});
  CheckpointSection binary{"cache", {}};
  for (int i = 0; i < 64; ++i) {
    binary.payload.push_back(static_cast<std::uint8_t>(i * 37));
  }
  sections.push_back(binary);
  return sections;
}

TEST(CheckpointFuzz, EncodeDecodeRoundTrip) {
  const std::vector<CheckpointSection> original = sample_sections();
  const std::vector<CheckpointSection> decoded =
      detail::decode_checkpoint(detail::encode_checkpoint(original));
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].name, original[i].name);
    EXPECT_EQ(decoded[i].payload, original[i].payload);
  }
}

TEST(CheckpointFuzz, EveryTruncationRejected) {
  const std::vector<std::uint8_t> bytes =
      detail::encode_checkpoint(sample_sections());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(detail::decode_checkpoint(prefix), std::runtime_error)
        << "prefix of " << len << " bytes decoded cleanly";
  }
}

TEST(CheckpointFuzz, EveryBitFlipDetected) {
  const std::vector<CheckpointSection> original = sample_sections();
  const std::vector<std::uint8_t> bytes = detail::encode_checkpoint(original);

  std::size_t throws = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const int bit : {0, 7}) {
      std::vector<std::uint8_t> damaged = bytes;
      damaged[i] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const std::vector<CheckpointSection> decoded =
            detail::decode_checkpoint(damaged);
        // Section names are outside the per-section CRC, so a flip there
        // decodes — but the name no longer matches, which the resume path
        // rejects as a missing section. Anything else must have thrown.
        bool names_differ = decoded.size() != original.size();
        for (std::size_t s = 0; !names_differ && s < decoded.size(); ++s) {
          names_differ = decoded[s].name != original[s].name;
        }
        EXPECT_TRUE(names_differ)
            << "bit " << bit << " of byte " << i
            << " flipped without detection";
      } catch (const std::runtime_error&) {
        ++throws;
      }
    }
  }
  // The overwhelming majority of flips hit CRC-covered payload or structural
  // fields and must throw outright.
  EXPECT_GT(throws, bytes.size());
}

/// Runs `decode` and expects a runtime_error-family rejection whose message
/// names `field`. A decoder that sizes memory by the count first dies with
/// std::length_error or std::bad_alloc instead, which fails the test.
template <typename Decode>
void expect_named_rejection(const std::string& field, Decode&& decode) {
  try {
    decode();
    ADD_FAILURE() << field << ": a huge count decoded cleanly";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << field << " not named in: " << e.what();
  }
}

/// A section payload whose first count is `count`, after `prefix`.
std::vector<std::uint8_t> with_count(util::StateWriter prefix,
                                     std::uint64_t count) {
  prefix.put_u64(count);
  return prefix.take();
}

TEST(CheckpointFuzz, HugeCountsRejectedByNameBeforeAllocating) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

  {
    // WCKP container (current version 7): the u32 section count is the
    // largest it can be.
    util::StateWriter w;
    w.put_bytes("WCKP", 4);
    w.put_u32(7);
    w.put_u32(0xFFFFFFFFu);
    const std::vector<std::uint8_t> bytes = w.take();
    expect_named_rejection("section count",
                           [&] { detail::decode_checkpoint(bytes); });
  }
  {
    const std::vector<std::uint8_t> bytes = with_count({}, kHuge);
    expect_named_rejection("id run", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "cache");
      cache::LruPolicy().restore_state(r, cache::ObjectTable{});
    });
  }
  {
    // Window length (must match the sink's), total requests, then windows.
    util::StateWriter w;
    w.put_u64(113);
    w.put_u64(0);
    const std::vector<std::uint8_t> bytes = with_count(std::move(w), kHuge);
    expect_named_rejection("metrics window", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "metrics");
      obs::RecordingSink(113).restore_state(r);
    });
  }
  {
    const std::vector<std::uint8_t> bytes = with_count({}, kHuge);
    expect_named_rejection("last-size entry", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "lastsize");
      detail::DenseLastSize().restore_state(r);
    });
  }
  {
    const std::vector<std::uint8_t> bytes = with_count({}, kHuge);
    expect_named_rejection("document id", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "ids");
      trace::IdMap ids;
      detail::restore_ids(r, ids);
    });
  }
}

/// A checkpointed LRU run over a small DFN trace, stopped after 6000
/// requests with checkpoints every 3000. Every file but the newest is
/// deleted, so a resume has no valid fallback to hide damage behind.
class NewestCheckpoint {
 public:
  explicit NewestCheckpoint(const std::string& name)
      : t_(synth::TraceGenerator(synth::WorkloadProfile::DFN().scaled(0.002))
               .generate()),
        capacity_(t_.overall_size_bytes() / 25),
        spec_(cache::policy_spec_from_name("LRU")),
        dir_(testing::TempDir() + "/" + name) {
    fs::remove_all(dir_);
    job_.checkpoint.dir = dir_;
    job_.checkpoint.every = 3000;
    job_.checkpoint.trace_source = "synthetic-dfn-0.002";
    job_.checkpoint.stop_after_requests = 6000;
    {
      trace::MemoryRequestStream stream(t_, 4096);
      cache::Cache frontend(capacity_, cache::make_policy(spec_));
      EXPECT_TRUE(
          simulate_stream_checkpointed(stream, frontend, job_).stopped_early);
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    EXPECT_FALSE(files.empty());
    newest_ = files.back();
    for (const fs::path& older : files) {
      if (older != newest_) fs::remove(older);
    }
  }
  ~NewestCheckpoint() { fs::remove_all(dir_); }

  std::vector<std::uint8_t> bytes() const {
    std::ifstream in(newest_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  std::vector<CheckpointSection> sections() const {
    return detail::decode_checkpoint(bytes());
  }
  void overwrite(const std::vector<std::uint8_t>& bytes) const {
    // Removed first, so the rewrite starts a new file: truncating one in
    // place has cost milliseconds a call (ext4 mounted with `discard`).
    fs::remove(newest_);
    std::ofstream out(newest_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Resumes from the (possibly rewritten) newest checkpoint and returns
  /// the rejection message, or "" when the resume ran through.
  std::string resume_error() {
    job_.checkpoint.stop_after_requests = 0;
    job_.checkpoint.resume = true;
    trace::MemoryRequestStream stream(t_, 4096);
    cache::Cache frontend(capacity_, cache::make_policy(spec_));
    try {
      simulate_stream_checkpointed(stream, frontend, job_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

 private:
  trace::Trace t_;
  std::uint64_t capacity_;
  cache::PolicySpec spec_;
  std::string dir_;
  StreamCheckpointJob job_;
  fs::path newest_;
};

CheckpointSection& section_named(std::vector<CheckpointSection>& sections,
                                 const std::string& name) {
  for (CheckpointSection& s : sections) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("no section " + name);
}

TEST(CheckpointFuzz, CrossWiredSectionsRejectedOnResume) {
  NewestCheckpoint checkpoint("webcache_ckpt_crosswire");

  // Swap the payloads of two sections in the newest checkpoint: each CRC
  // still validates, but the content belongs to the wrong subsystem.
  std::vector<CheckpointSection> sections = checkpoint.sections();
  std::swap(section_named(sections, "cache").payload,
            section_named(sections, "lastsize").payload);
  checkpoint.overwrite(detail::encode_checkpoint(sections));

  // The misdelivered payload fails section-level parsing, which names the
  // section it was read as.
  const std::string what = checkpoint.resume_error();
  ASSERT_FALSE(what.empty()) << "cross-wired checkpoint restored silently";
  EXPECT_TRUE(what.find("cache") != std::string::npos ||
              what.find("lastsize") != std::string::npos)
      << what;
}

TEST(CheckpointFuzz, IdsPastTheIdsCountRejectedByName) {
  NewestCheckpoint checkpoint("webcache_ckpt_id_bound");
  const std::vector<CheckpointSection> sections = checkpoint.sections();

  // The cache section starts with the accounting words (admission limit,
  // used bytes, clock, evictions, insertions, per-class objects and bytes)
  // and the resident count; the first resident object's id follows.
  constexpr std::size_t kFirstId =
      8 * (5 + 2 * trace::kDocumentClassCount) + 8;
  std::vector<CheckpointSection> huge_id = sections;
  std::vector<std::uint8_t>& cache = section_named(huge_id, "cache").payload;
  ASSERT_GT(cache.size(), kFirstId + 8);
  for (std::size_t i = 0; i < 8; ++i) {
    cache[kFirstId + i] =
        static_cast<std::uint8_t>((std::uint64_t{1} << 40) >> (8 * i));
  }
  checkpoint.overwrite(detail::encode_checkpoint(huge_id));
  std::string what = checkpoint.resume_error();
  EXPECT_NE(what.find("section 'cache'"), std::string::npos) << what;
  EXPECT_NE(what.find("1099511627776"), std::string::npos) << what;

  // One last-size entry more than there are interned ids.
  std::vector<CheckpointSection> long_sizes = sections;
  std::vector<std::uint8_t>& lastsize =
      section_named(long_sizes, "lastsize").payload;
  util::StateReader count(lastsize.data(), lastsize.size(), "lastsize");
  const std::uint64_t entries = count.take_u64() + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    lastsize[i] = static_cast<std::uint8_t>(entries >> (8 * i));
  }
  lastsize.insert(lastsize.end(), 8, 0xFF);
  checkpoint.overwrite(detail::encode_checkpoint(long_sizes));
  what = checkpoint.resume_error();
  EXPECT_NE(what.find("section 'lastsize'"), std::string::npos) << what;

  // Policy state reads its ids through the same bound.
  util::StateWriter w;
  w.put_u64(1);
  w.put_u64(10);
  const std::vector<std::uint8_t> run = w.take();
  util::StateReader r(run.data(), run.size(), "cache");
  r.bound_ids(10);
  EXPECT_THROW(cache::LruPolicy().restore_state(r, cache::ObjectTable{}),
               util::StateError);
}

TEST(CheckpointFuzz, PolicyIdsMustBeResident) {
  // Policies keep slots and restore maps each saved id to the slot the
  // cache's table gave it; an id the table does not hold is rejected, for
  // list and heap codecs alike, never restored under a made-up slot.
  cache::ObjectTable objects;
  cache::CacheObject obj;
  obj.id = 4;
  objects.insert(obj);
  util::StateWriter list;
  list.put_u64(2);
  list.put_u64(4);
  list.put_u64(5);
  const std::vector<std::uint8_t> list_bytes = list.take();
  expect_named_rejection("non-resident", [&] {
    util::StateReader r(list_bytes.data(), list_bytes.size(), "cache");
    cache::LruPolicy().restore_state(r, objects);
  });
  util::StateWriter heap;
  heap.put_u64(1);
  heap.put_u64(7);
  heap.put_double(1.0);
  heap.put_u64(0);
  heap.put_u64(1);
  heap.put_double(0.0);
  const std::vector<std::uint8_t> heap_bytes = heap.take();
  expect_named_rejection("non-resident", [&] {
    util::StateReader r(heap_bytes.data(), heap_bytes.size(), "cache");
    cache::make_policy("GDS(1)")->restore_state(r, objects);
  });
}

TEST(CheckpointFuzz, VersionOneImageRejected) {
  // Every older format is rejected by number: version 1 (the densifier
  // section), version 2 (window snapshots without per-class occupancy),
  // version 3 (FIFO and the lazy LRU variants in per-class layouts),
  // version 4 (CLOCK's counters interleaved with its ring's ids),
  // version 5 (a fault-schedule hash in the fingerprint) and version 6 (a
  // seed in the fingerprint, fault counters in "result" and "metrics").
  for (const std::uint8_t version : {1, 2, 3, 4, 5, 6}) {
    std::vector<std::uint8_t> bytes =
        detail::encode_checkpoint(sample_sections());
    bytes[4] = version;  // the u32 version follows the 4-byte magic
    try {
      detail::decode_checkpoint(bytes);
      FAIL() << "version-" << int{version} << " image decoded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFuzz, FingerprintValidationNamesEveryField) {
  CheckpointFingerprint base;
  base.policy_description = "LRU cap=1000";
  base.capacity_bytes = 1000;
  base.warmup_fraction = 0.1;
  base.modification_rule = 1;
  base.modification_threshold = 0.05;
  base.latency_setup_ms = 2.0;
  base.latency_bytes_per_ms = 4000.0;
  base.window_requests = 113;
  base.trace_source = "trace.wct";
  base.total_requests = 5000;

  // Round trip first: an unmodified fingerprint must validate.
  util::StateWriter w;
  detail::save_fingerprint(w, base);
  const std::vector<std::uint8_t> encoded = w.take();
  util::StateReader r(encoded.data(), encoded.size(), "fingerprint");
  const CheckpointFingerprint restored = detail::restore_fingerprint(r);
  EXPECT_NO_THROW(detail::validate_fingerprint(base, restored, "f.wckp"));

  struct Case {
    const char* field;
    void (*mutate)(CheckpointFingerprint&);
  };
  const Case cases[] = {
      {"policy", [](CheckpointFingerprint& f) { f.policy_description = "X"; }},
      {"capacity_bytes", [](CheckpointFingerprint& f) { f.capacity_bytes++; }},
      {"warmup_fraction",
       [](CheckpointFingerprint& f) { f.warmup_fraction = 0.2; }},
      {"modification_rule",
       [](CheckpointFingerprint& f) { f.modification_rule = 2; }},
      {"modification_threshold",
       [](CheckpointFingerprint& f) { f.modification_threshold = 0.06; }},
      {"latency_setup_ms",
       [](CheckpointFingerprint& f) { f.latency_setup_ms = 3.0; }},
      {"latency_bytes_per_ms",
       [](CheckpointFingerprint& f) { f.latency_bytes_per_ms = 1.0; }},
      {"window_requests",
       [](CheckpointFingerprint& f) { f.window_requests = 0; }},
      {"trace_source",
       [](CheckpointFingerprint& f) { f.trace_source = "other.wct"; }},
      {"total_requests",
       [](CheckpointFingerprint& f) { f.total_requests = 1; }},
  };
  for (const Case& c : cases) {
    CheckpointFingerprint found = base;
    c.mutate(found);
    try {
      detail::validate_fingerprint(base, found, "f.wckp");
      FAIL() << "mismatched " << c.field << " validated";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << "field " << c.field << " not named in: " << e.what();
      EXPECT_NE(std::string(e.what()).find("f.wckp"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFuzz, SimResultStateRoundTrip) {
  SimResult result;
  result.policy_name = "GD*(packet)";
  result.capacity_bytes = 123456;
  result.overall = {100, 40, 987654, 32100};
  for (std::size_t c = 0; c < result.per_class.size(); ++c) {
    result.per_class[c] = {10 + c, 5 + c, 1000 * c, 300 * c};
  }
  result.warmup_requests = 50;
  result.measured_requests = 950;
  result.evictions = 77;
  result.bypasses = 3;
  result.miss_latency_ms = 123.4375;  // exactly representable
  result.all_miss_latency_ms = 987.5;
  result.modification_misses = 4;
  result.interrupted_transfers = 2;

  util::StateWriter w;
  detail::save_sim_result(w, result);
  const std::vector<std::uint8_t> bytes = w.take();
  util::StateReader r(bytes.data(), bytes.size(), "result");
  const SimResult restored = detail::restore_sim_result(r);
  r.expect_end();

  EXPECT_EQ(restored.policy_name, result.policy_name);
  EXPECT_EQ(restored.capacity_bytes, result.capacity_bytes);
  EXPECT_EQ(restored.overall.requests, result.overall.requests);
  EXPECT_EQ(restored.overall.hit_bytes, result.overall.hit_bytes);
  for (std::size_t c = 0; c < result.per_class.size(); ++c) {
    EXPECT_EQ(restored.per_class[c].requests, result.per_class[c].requests);
  }
  EXPECT_EQ(restored.miss_latency_ms, result.miss_latency_ms);
  EXPECT_EQ(restored.all_miss_latency_ms, result.all_miss_latency_ms);
}

}  // namespace
}  // namespace webcache::sim
