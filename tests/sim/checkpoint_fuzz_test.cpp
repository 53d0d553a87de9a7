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

#include "cache/factory.hpp"
#include "cache/frontend.hpp"
#include "cache/lru.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/last_size.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
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
    // WCKP container: the u32 section count is the largest it can be.
    util::StateWriter w;
    w.put_bytes("WCKP", 4);
    w.put_u32(1);
    w.put_u32(0xFFFFFFFFu);
    const std::vector<std::uint8_t> bytes = w.take();
    expect_named_rejection("section count",
                           [&] { detail::decode_checkpoint(bytes); });
  }
  {
    const std::vector<std::uint8_t> bytes = with_count({}, kHuge);
    expect_named_rejection("id run", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "cache");
      cache::LruPolicy().restore_state(r);
    });
  }
  {
    // The occupancy-sample count sits right before the six fault counters.
    util::StateWriter w;
    detail::save_sim_result(w, SimResult{});
    std::vector<std::uint8_t> bytes = w.take();
    const std::size_t at = bytes.size() - 6 * 8 - 8;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(kHuge >> (8 * i));
    }
    expect_named_rejection("occupancy sample", [&] {
      util::StateReader r(bytes.data(), bytes.size(), "result");
      detail::restore_sim_result(r);
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
      detail::GrowingDenseLastSize().restore_state(r);
    });
  }
}

TEST(CheckpointFuzz, CrossWiredSectionsRejectedOnResume) {
  synth::TraceGenerator generator(synth::WorkloadProfile::DFN().scaled(0.002));
  const trace::Trace t = generator.generate();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;
  const cache::PolicySpec spec = cache::policy_spec_from_name("LRU");

  const std::string dir = testing::TempDir() + "/webcache_ckpt_crosswire";
  fs::remove_all(dir);

  StreamCheckpointJob job;
  job.checkpoint.dir = dir;
  job.checkpoint.every = 3000;
  job.checkpoint.trace_source = "synthetic-dfn-0.002";
  job.checkpoint.stop_after_requests = 6000;
  {
    trace::MemoryRequestStream stream(t, 4096);
    cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
    ASSERT_TRUE(simulate_stream_checkpointed(stream, frontend, job)
                    .stopped_early);
  }

  // Swap the payloads of two sections in the newest checkpoint: each CRC
  // still validates, but the content belongs to the wrong subsystem.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  const fs::path newest = files.back();
  for (const fs::path& older : files) {
    if (older != newest) fs::remove(older);  // no valid fallback may remain
  }
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(newest, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  std::vector<CheckpointSection> sections = detail::decode_checkpoint(bytes);
  CheckpointSection* cache_section = nullptr;
  CheckpointSection* lastsize_section = nullptr;
  for (CheckpointSection& s : sections) {
    if (s.name == "cache") cache_section = &s;
    if (s.name == "lastsize") lastsize_section = &s;
  }
  ASSERT_NE(cache_section, nullptr);
  ASSERT_NE(lastsize_section, nullptr);
  std::swap(cache_section->payload, lastsize_section->payload);
  {
    const std::vector<std::uint8_t> rewired =
        detail::encode_checkpoint(sections);
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(rewired.data()),
              static_cast<std::streamsize>(rewired.size()));
  }

  job.checkpoint.stop_after_requests = 0;
  job.checkpoint.resume = true;
  trace::MemoryRequestStream stream(t, 4096);
  cache::SingleCacheFrontend frontend(capacity, cache::make_policy(spec));
  try {
    simulate_stream_checkpointed(stream, frontend, job);
    FAIL() << "cross-wired checkpoint restored silently";
  } catch (const std::runtime_error& e) {
    // The misdelivered payload fails section-level parsing, which names the
    // section it was read as.
    const std::string what = e.what();
    EXPECT_TRUE(what.find("cache") != std::string::npos ||
                what.find("lastsize") != std::string::npos)
        << what;
  }
  fs::remove_all(dir);
}

TEST(CheckpointFuzz, FingerprintValidationNamesEveryField) {
  CheckpointFingerprint base;
  base.policy_description = "LRU cap=1000";
  base.capacity_bytes = 1000;
  base.warmup_fraction = 0.1;
  base.modification_rule = 1;
  base.modification_threshold = 0.05;
  base.occupancy_samples = 8;
  base.latency_setup_ms = 2.0;
  base.latency_bytes_per_ms = 4000.0;
  base.densified = false;
  base.hot_capacity = 0;
  base.window_requests = 113;
  base.fault_hash = 7;
  base.trace_source = "trace.wct";
  base.total_requests = 5000;
  base.seed = 42;

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
      {"occupancy_samples",
       [](CheckpointFingerprint& f) { f.occupancy_samples = 9; }},
      {"latency_setup_ms",
       [](CheckpointFingerprint& f) { f.latency_setup_ms = 3.0; }},
      {"latency_bytes_per_ms",
       [](CheckpointFingerprint& f) { f.latency_bytes_per_ms = 1.0; }},
      {"densified", [](CheckpointFingerprint& f) { f.densified = true; }},
      {"hot_capacity", [](CheckpointFingerprint& f) { f.hot_capacity = 64; }},
      {"window_requests",
       [](CheckpointFingerprint& f) { f.window_requests = 0; }},
      {"fault_schedule", [](CheckpointFingerprint& f) { f.fault_hash = 8; }},
      {"trace_source",
       [](CheckpointFingerprint& f) { f.trace_source = "other.wct"; }},
      {"total_requests",
       [](CheckpointFingerprint& f) { f.total_requests = 1; }},
      {"seed", [](CheckpointFingerprint& f) { f.seed = 43; }},
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
  OccupancySample sample;
  sample.request_index = 500;
  sample.occupancy.objects[0] = 9;
  sample.occupancy.bytes[0] = 900;
  sample.occupancy.total_objects = 9;
  sample.occupancy.total_bytes = 900;
  result.occupancy_series = {sample};
  result.faults.events_applied = 6;
  result.faults.failovers = 5;
  result.faults.lost_requests = 4;
  result.faults.lost_bytes = 4000;
  result.faults.probe_timeouts = 11;
  result.faults.origin_fetches = 2;

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
  ASSERT_EQ(restored.occupancy_series.size(), 1u);
  EXPECT_EQ(restored.occupancy_series[0].request_index, 500u);
  EXPECT_EQ(restored.occupancy_series[0].occupancy.total_bytes, 900u);
  EXPECT_EQ(restored.faults.probe_timeouts, 11u);
}

TEST(CheckpointFuzz, FaultScheduleHashSeparatesScenarios) {
  FaultSchedule a;
  a.events = {{100, FaultKind::kEdgeCrash, 0}};
  a.seed = 1;
  FaultSchedule b = a;

  EXPECT_NE(fault_schedule_hash(a), 0u);  // 0 is reserved for "no schedule"
  EXPECT_EQ(fault_schedule_hash(a), fault_schedule_hash(b));

  b.seed = 2;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.events[0].at_request = 101;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.events.push_back({200, FaultKind::kEdgeRecover, 0});
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));
  b = a;
  b.probe_timeout_rate = 0.5;
  EXPECT_NE(fault_schedule_hash(a), fault_schedule_hash(b));

  EXPECT_NE(fault_schedule_hash(FaultSchedule{}), 0u);
}

}  // namespace
}  // namespace webcache::sim
