// Pins the generator's output bytes across builds, not only within one:
// the CRC-32 of the WCT1 encoding of generate() and of the first chunks of
// stream(), against constants recorded from an earlier build of the
// library. Any change to a draw (the Zipf counts, the document picker, an
// inverse-CDF lookup, the RNG substreams) changes these digests. The golden
// fixtures and the benchmark's recorded digests depend on these bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/binary_trace.hpp"
#include "trace/request.hpp"
#include "util/state_io.hpp"

namespace webcache::synth {
namespace {

std::uint32_t trace_crc(const trace::Trace& t) {
  std::ostringstream out;
  trace::write_binary_trace(out, t);
  const std::string bytes = out.str();
  return util::crc32(bytes.data(), bytes.size());
}

WorkloadProfile profile_named(const std::string& name) {
  return (name == "DFN" ? WorkloadProfile::DFN() : WorkloadProfile::RTP())
      .scaled(0.005);
}

struct Pinned {
  const char* profile;
  std::uint64_t seed;
  std::uint32_t generate_crc;
  std::uint32_t stream_crc;  // first 3 chunks of stream(4096)
};

constexpr Pinned kPinned[] = {
    {"DFN", 42, 0xac9da5aau, 0xf7b12e23u},
    {"DFN", 1, 0x982a1c94u, 0x62945c3cu},
    {"RTP", 42, 0x59a48959u, 0x4b4feae3u},
    {"RTP", 1, 0x8a565930u, 0xcb401cc8u},
};

TEST(GeneratorBytes, GenerateMatchesRecordedDigests) {
  for (const Pinned& p : kPinned) {
    GeneratorOptions options;
    options.seed = p.seed;
    const trace::Trace t =
        TraceGenerator(profile_named(p.profile), options).generate();
    EXPECT_EQ(trace_crc(t), p.generate_crc)
        << p.profile << " seed " << p.seed << " got 0x" << std::hex
        << trace_crc(t);
  }
}

TEST(GeneratorBytes, StreamChunksMatchRecordedDigests) {
  for (const Pinned& p : kPinned) {
    GeneratorOptions options;
    options.seed = p.seed;
    const auto stream =
        TraceGenerator(profile_named(p.profile), options).stream(4096);
    trace::Trace t;
    for (int chunk = 0; chunk < 3; ++chunk) {
      const auto records = stream->next_chunk();
      ASSERT_EQ(records.size(), 4096u) << p.profile << " chunk " << chunk;
      t.requests.insert(t.requests.end(), records.begin(), records.end());
    }
    EXPECT_EQ(trace_crc(t), p.stream_crc)
        << p.profile << " seed " << p.seed << " got 0x" << std::hex
        << trace_crc(t);
  }
}

}  // namespace
}  // namespace webcache::synth
