#include "util/state_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace webcache::util {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void StateWriter::put_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void StateWriter::put_string(const std::string& s) {
  put_u64(s.size());
  put_bytes(s.data(), s.size());
}

void StateWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void StateReader::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw StateError(section_, "truncated state stream (need " +
                                   std::to_string(n) + " byte(s), have " +
                                   std::to_string(size_ - pos_) + ")");
  }
}

std::uint8_t StateReader::take_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t StateReader::take_u32() {
  need(4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t StateReader::take_u64() {
  need(8);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

bool StateReader::take_bool() {
  const std::uint8_t v = take_u8();
  if (v > 1) fail("boolean byte out of range");
  return v == 1;
}

double StateReader::take_double() {
  const std::uint64_t bits = take_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string StateReader::take_string() {
  const std::uint64_t n = take_u64();
  if (n > remaining()) fail("string length exceeds stream");
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::uint64_t StateReader::take_count(std::size_t min_bytes_per_element,
                                      const std::string& field) {
  const std::uint64_t n = take_u64();
  if (n > remaining() / std::max<std::size_t>(min_bytes_per_element, 1)) {
    fail(field + " count " + std::to_string(n) + " exceeds the " +
         std::to_string(remaining()) + " byte(s) left");
  }
  return n;
}

void StateReader::expect_end() const {
  if (!exhausted()) {
    throw StateError(section_, std::to_string(remaining()) +
                                   " trailing byte(s) after decode");
  }
}

}  // namespace webcache::util
