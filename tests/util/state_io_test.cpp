// The checkpoint writer's primitives: the slicing-by-8 CRC-32 must give the
// IEEE digest however its input is split or aligned, and a StateWriter that
// spills to a target must emit exactly the bytes an in-memory one holds.
#include "util/state_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace webcache::util {
namespace {

/// Bit-at-a-time CRC-32 (IEEE, reflected), the definition the tables encode.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(StateIo, Crc32CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(StateIo, Crc32AnySplitAndAlignmentMatchesOneShotAndReference) {
  std::mt19937 rng(20021);
  std::vector<std::uint8_t> buffer(1024 + 8);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());

  for (std::size_t start = 0; start < 8; ++start) {
    const std::uint8_t* data = buffer.data() + start;
    const std::size_t n = 1024;
    const std::uint32_t one_shot = crc32(data, n);
    ASSERT_EQ(one_shot, reference_crc32(data, n)) << "start " << start;
    for (std::size_t split = 0; split <= n; ++split) {
      const std::uint32_t head = crc32(data, split);
      ASSERT_EQ(head, reference_crc32(data, split))
          << "start " << start << " length " << split;
      ASSERT_EQ(crc32(data + split, n - split, head), one_shot)
          << "start " << start << " split " << split;
    }
  }
}

/// Collects what a spilling writer hands on, chunk by chunk.
class Collector : public StateSpill {
 public:
  void spill(const std::uint8_t* data, std::size_t n) override {
    bytes.insert(bytes.end(), data, data + n);
    chunks.push_back(n);
  }

  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> chunks;
};

/// Mixed puts totalling about 2.3 MiB: puts of 1, 4 and 8 bytes that meet
/// a full buffer, and one put_bytes larger than the buffer.
void write_mixed(StateWriter& w) {
  std::vector<std::uint8_t> big(StateWriter::kSpillBytes + 3);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  for (std::uint64_t i = 0; i < 80000; ++i) {
    w.put_u8(static_cast<std::uint8_t>(i));
    w.put_u32(static_cast<std::uint32_t>(i * 2654435761u));
    w.put_u64(i * 0x9E3779B97F4A7C15ull);
    w.put_i32(-static_cast<std::int32_t>(i));
    if (i % 1000 == 0) w.put_string("section " + std::to_string(i));
    if (i == 30000) w.put_bytes(big.data(), big.size());
  }
  w.put_bool(true);
  w.put_double(-0.5);
}

TEST(StateIo, SpillingWriterEmitsTheBytesAnUnspilledWriterHolds) {
  StateWriter plain;
  write_mixed(plain);
  const std::vector<std::uint8_t> expected = plain.take();
  ASSERT_GT(expected.size(), 2 * StateWriter::kSpillBytes);

  Collector target;
  StateWriter spilling(&target);
  write_mixed(spilling);
  EXPECT_EQ(spilling.size(), expected.size());
  EXPECT_LE(spilling.bytes().size(), StateWriter::kSpillBytes);
  EXPECT_EQ(target.bytes.size() + spilling.bytes().size(), expected.size());
  spilling.flush();
  EXPECT_EQ(spilling.size(), expected.size());
  EXPECT_TRUE(spilling.bytes().empty());
  EXPECT_EQ(target.bytes, expected);

  // Only the one oversized put passes the buffer by.
  std::size_t oversized = 0;
  for (const std::size_t n : target.chunks) {
    if (n > StateWriter::kSpillBytes) ++oversized;
  }
  EXPECT_EQ(oversized, 1u);
  EXPECT_GE(target.chunks.size(), 3u);
}

}  // namespace
}  // namespace webcache::util
