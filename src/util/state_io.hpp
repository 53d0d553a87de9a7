// Byte-stream serialization primitives for checkpointing.
//
// Every stateful layer that participates in crash-safe checkpoints
// (policies, caches, the densifier, the metrics sink, the replay core)
// encodes itself through a StateWriter and decodes through a StateReader.
// The wire format is deliberately dumb: fixed-width little-endian
// integers, doubles as IEEE-754 bit patterns (so restored latency sums
// are bit-identical, not merely close), and length-prefixed strings.
// Readers are bounds-checked and every decode failure throws a
// StateError naming the checkpoint section it happened in — a corrupted
// checkpoint must always die with a diagnostic, never with UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace webcache::util {

/// Malformed checkpoint bytes. `section` names the checkpoint section
/// (or data structure) whose decode failed; the what() string embeds it.
class StateError : public std::runtime_error {
 public:
  StateError(std::string section, const std::string& what)
      : std::runtime_error("checkpoint section '" + section + "': " + what),
        section_(std::move(section)) {}

  const std::string& section() const { return section_; }

 private:
  std::string section_;
};

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) over a byte span.
/// Pass a previous return value as `seed` to continue a running digest.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

class StateWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern; round-trips every double exactly (incl. NaN).
  void put_double(double v);
  void put_string(const std::string& s);
  void put_bytes(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class StateReader {
 public:
  /// The reader does not own the bytes; `section` labels every error.
  StateReader(const std::uint8_t* data, std::size_t size, std::string section)
      : data_(data), size_(size), section_(std::move(section)) {}

  std::uint8_t take_u8();
  std::uint32_t take_u32();
  std::uint64_t take_u64();
  std::int32_t take_i32() { return static_cast<std::int32_t>(take_u32()); }
  bool take_bool();
  double take_double();
  std::string take_string();
  /// Reads a u64 element count and bounds it by the bytes left: every
  /// element encodes to at least `min_bytes_per_element` bytes, so a count
  /// the stream cannot hold throws a StateError naming `field` before the
  /// caller sizes a container by it.
  std::uint64_t take_count(std::size_t min_bytes_per_element,
                           const std::string& field);

  /// Bytes not yet consumed.
  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }
  /// Throws StateError when trailing bytes remain — catches encoder/decoder
  /// drift the moment it happens instead of silently ignoring state.
  void expect_end() const;

  const std::string& section() const { return section_; }
  [[noreturn]] void fail(const std::string& what) const {
    throw StateError(section_, what);
  }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string section_;
};

}  // namespace webcache::util
