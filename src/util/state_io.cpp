#include "util/state_io.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace webcache::util {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the byte-wise table, and t[k][b] is
/// t[0][b] advanced through k more zero bytes.
CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
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

bool StateWriter::make_room(const void* data, std::size_t n) {
  if (target_ == nullptr) {
    buffer_.resize(std::max(used_ + n, std::max<std::size_t>(
                                           2 * buffer_.size(), 256)));
    return true;
  }
  flush();
  if (n >= kSpillBytes) {
    target_->spill(static_cast<const std::uint8_t*>(data), n);
    spilled_ += n;
    return false;
  }
  buffer_.resize(kSpillBytes);
  return true;
}

void StateWriter::flush() {
  if (target_ == nullptr || used_ == 0) return;
  target_->spill(buffer_.data(), used_);
  spilled_ += used_;
  used_ = 0;
}

std::vector<std::uint8_t> StateWriter::take() {
  buffer_.resize(used_);
  std::vector<std::uint8_t> out = std::move(buffer_);
  buffer_.clear();
  used_ = 0;
  return out;
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

std::uint64_t StateReader::take_id() {
  const std::uint64_t id = take_u64();
  if (ids_bounded_ && id >= id_bound_) {
    fail("document id " + std::to_string(id) + " outside the " +
         std::to_string(id_bound_) + " interned id(s)");
  }
  return id;
}

void StateReader::expect_end() const {
  if (!exhausted()) {
    throw StateError(section_, std::to_string(remaining()) +
                                   " trailing byte(s) after decode");
  }
}

}  // namespace webcache::util
