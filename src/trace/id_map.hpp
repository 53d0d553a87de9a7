// Flat open-addressing map from sparse document ids to dense ones.
//
// IdMap hands out 32-bit ids in first-appearance order: the first new key
// interned gets 0, the next 1, and so on. trace::densify() numbers a whole
// trace through it. Instead of one heap node per key it keeps two flat
// arrays:
//
//   slots_  linear-probing table of 64-bit words, at most half full. A slot
//           is 0 when empty, else (hash fingerprint << 32) | (id + 1).
//   keys_   keys_[id] = the original key, in id order.
//
// A probe compares fingerprints first and only a fingerprint match reads
// keys_ to confirm, so a slot stays 8 bytes instead of a 16-byte
// {key, id} pair. Growth doubles the table and re-inserts from keys_, which
// are already in id order; the old table is released before the new one
// is built, so no two tables are ever live at once.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/request.hpp"

namespace webcache::trace {

class IdMap {
 public:
  /// Most distinct keys one map may number. Dense ids index
  /// cache::ObjectTable's flat slot vector, whose kNoSlot sentinel
  /// (2^32 - 1) caps the dense universe at 2^32 - 2 documents.
  static constexpr std::uint64_t kMaxIds = 0xFFFFFFFEULL;

  /// Dense id of `key`, numbering it next if it has not been seen. Throws
  /// std::length_error when a new key would exceed the id cap.
  std::uint32_t intern(DocumentId key) {
    if (slots_.empty()) rebuild(kInitialSlots);
    const std::uint64_t h = mix(key);
    std::size_t i = index_of(h);
    for (std::uint64_t s = slots_[i]; s != 0; s = slots_[i]) {
      if ((s >> 32) == (h & kLow32)) {
        const auto id = static_cast<std::uint32_t>(s - 1);
        if (keys_[id] == key) return id;
      }
      i = (i + 1) & mask_;
    }

    if (keys_.size() >= kMaxIds) {
      throw std::length_error(
          "IdMap: more than " + std::to_string(kMaxIds) +
          " distinct document ids; dense ids are 32-bit");
    }
    if (2 * (keys_.size() + 1) > slots_.size()) {
      rebuild(2 * slots_.size());
      i = free_slot(h);
    }
    const auto id = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[i] = ((h & kLow32) << 32) | (std::uint64_t{id} + 1);
    return id;
  }

  /// Number of distinct keys interned so far.
  std::size_t size() const { return keys_.size(); }

  /// The keys in id order: element `id` is the key numbered `id`.
  const std::vector<DocumentId>& keys() const { return keys_; }

  /// Moves the id -> key table out (element `id` is the key numbered
  /// `id`); the map is left empty.
  std::vector<DocumentId> release_keys() {
    slots_.clear();
    slots_.shrink_to_fit();
    return std::exchange(keys_, {});
  }

 private:
  static constexpr std::size_t kInitialSlots = 1024;
  static constexpr std::uint64_t kLow32 = 0xFFFFFFFFULL;

  // splitmix64's finalizer: synthetic traces number documents 0, 1, 2, ...,
  // so the raw key has no entropy in its high bits.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  // Home slot from the hash's high bits; the fingerprint uses its low 32.
  std::size_t index_of(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> shift_);
  }

  std::size_t free_slot(std::uint64_t h) const {
    std::size_t i = index_of(h);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    return i;
  }

  void rebuild(std::size_t slot_count) {
    slots_.clear();
    slots_.shrink_to_fit();
    slots_.assign(slot_count, 0);
    mask_ = slot_count - 1;
    shift_ = 64;
    for (std::size_t n = slot_count; n > 1; n >>= 1) --shift_;
    for (std::size_t id = 0; id < keys_.size(); ++id) {
      const std::uint64_t h = mix(keys_[id]);
      slots_[free_slot(h)] = ((h & kLow32) << 32) | (std::uint64_t{id} + 1);
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<DocumentId> keys_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace webcache::trace
