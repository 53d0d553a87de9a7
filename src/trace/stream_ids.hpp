// Dense numbering of a RequestStream's documents.
//
// StreamIds gives a stream's documents the ids trace::densify would give
// the whole trace: 0, 1, 2, ... in order of first reference. Where the
// stream stores them (a WCT1 v4 file, RequestStream::dense_ids) it takes
// them as they are and only appends each new document's original id to a
// flat table; otherwise it interns every request through an IdMap. The
// source is fixed by the first batch numbered, so one run never mixes the
// two, and the replay loop that calls it is the same either way.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/id_map.hpp"
#include "trace/request.hpp"

namespace webcache::trace {

class StreamIds {
 public:
  StreamIds() = default;
  /// Continues a numbering saved earlier (a checkpoint's "ids" section):
  /// `known` holds the documents numbered so far, in id order.
  explicit StreamIds(IdMap known) : map_(std::move(known)) {}

  /// Dense ids of `batch`; `stored` is the batch's slice of the stream's
  /// dense_ids() (empty when the stream stores none). The span is valid
  /// until the next call. Throws std::runtime_error when a stored id is
  /// neither a known document nor the next new one: a strict WCT1 decoder
  /// never lets that through, so it means the ids a run resumed with
  /// belong to another trace.
  std::span<const std::uint32_t> number(std::span<const Request> batch,
                                        std::span<const std::uint32_t> stored) {
    if (batch.empty()) return {};
    if (source_ == Source::kUndecided) {
      source_ = stored.empty() ? Source::kInterned : Source::kStored;
      if (source_ == Source::kStored) keys_ = map_.release_keys();
    }
    if (source_ == Source::kInterned) {
      numbered_.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        numbered_[i] = map_.intern(batch[i].document);
      }
      return numbered_;
    }
    if (stored.size() != batch.size()) {
      throw std::logic_error("StreamIds: a stream stopped storing dense ids");
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (stored[i] < keys_.size()) continue;
      if (stored[i] > keys_.size()) {
        throw std::runtime_error(
            "stream: dense id " + std::to_string(stored[i]) +
            " out of first-reference order after " +
            std::to_string(keys_.size()) + " documents");
      }
      keys_.push_back(batch[i].document);
    }
    return stored;
  }

  /// Documents numbered so far.
  std::size_t size() const {
    return source_ == Source::kStored ? keys_.size() : map_.size();
  }

  /// Original ids in dense-id order.
  std::span<const DocumentId> keys() const {
    return source_ == Source::kStored ? keys_ : map_.keys();
  }

 private:
  enum class Source { kUndecided, kInterned, kStored };

  Source source_ = Source::kUndecided;
  IdMap map_;
  std::vector<DocumentId> keys_;
  std::vector<std::uint32_t> numbered_;
};

}  // namespace webcache::trace
