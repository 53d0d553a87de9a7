#include "trace/binary_trace.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "trace/binary_trace_detail.hpp"
#include "trace/dense_trace.hpp"
#include "trace/id_map.hpp"

namespace webcache::trace {

namespace {

using detail::kHeaderBytes;

constexpr std::size_t kRecordBytesV1 = 8 + 8 + 1 + 2 + 8 + 8;
constexpr std::size_t kRecordBytesV2 = 8 + 8 + 4 + 1 + 2 + 8 + 8;
constexpr std::size_t kRecordBytesV4 = 8 + 8 + 4 + 4 + 1 + 2 + 8 + 8;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kLaneMultiplier = 0x9FB21C651E98DF25ULL;
// The first 256 bits of pi's fraction: four distinct lane start values.
constexpr std::uint64_t kLaneSeeds[4] = {
    0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL, 0xA4093822299F31D0ULL,
    0x082EFA98EC4E6C89ULL};

// Bijective in `h` for a fixed `w` (odd multiplier, xorshift) and in `w`
// for a fixed `h`: a different word always leaves a different lane.
inline std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kLaneMultiplier;
  return h ^ (h >> 29);
}

// The format is little-endian, like the record fields, which are copied
// in host order too.
inline std::uint64_t load_word(const char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// The four lanes are independent multiply chains, so they overlap in the
// pipeline: one 32-byte block costs about one multiply's latency.
void hash_blocks(std::uint64_t (&lanes)[4], const char* p,
                 std::size_t blocks) {
  std::uint64_t a = lanes[0], b = lanes[1], c = lanes[2], d = lanes[3];
  for (; blocks > 0; --blocks, p += 32) {
    a = lane_step(a, load_word(p));
    b = lane_step(b, load_word(p + 8));
    c = lane_step(c, load_word(p + 16));
    d = lane_step(d, load_word(p + 24));
  }
  lanes[0] = a;
  lanes[1] = b;
  lanes[2] = c;
  lanes[3] = d;
}

template <typename T>
void encode(char*& p, T value) {
  std::memcpy(p, &value, sizeof(T));
  p += sizeof(T);
}

void encode_record(char*& p, const Request& r, std::uint32_t dense_id,
                   bool size_changed) {
  encode(p, r.timestamp_ms);
  encode(p, r.document);
  encode(p, dense_id);
  encode(p, r.client);
  encode(p, static_cast<std::uint8_t>(
                static_cast<std::uint8_t>(r.doc_class) |
                (size_changed ? detail::kSizeChangedBit : 0)));
  encode(p, r.status);
  encode(p, r.document_size);
  encode(p, r.transfer_size);
}

std::string at_offset(const std::string& what, std::uint64_t offset) {
  return what + " (byte offset " + std::to_string(offset) + ")";
}

[[noreturn]] void read_fail(const std::string& what, std::uint64_t offset) {
  throw std::runtime_error("binary trace: " + at_offset(what, offset));
}

std::string record_of(std::uint64_t index, std::uint64_t count) {
  return "record " + std::to_string(index) + " of " + std::to_string(count);
}

}  // namespace

namespace detail {

// ------------------------------------------------------------ checksum

void TraceChecksum::update(const char* data, std::size_t n) {
  if (n == 0) return;
  if (legacy_) {
    for (std::size_t i = 0; i < n; ++i) {
      fnv_ ^= static_cast<unsigned char>(data[i]);
      fnv_ *= kFnvPrime;
    }
    return;
  }
  bytes_ += n;
  if (carry_bytes_ > 0) {
    const std::size_t take = std::min(kBlockBytes - carry_bytes_, n);
    std::memcpy(carry_ + carry_bytes_, data, take);
    carry_bytes_ += take;
    data += take;
    n -= take;
    if (carry_bytes_ < kBlockBytes) return;
    hash_blocks(lanes_, carry_, 1);
    carry_bytes_ = 0;
  }
  hash_blocks(lanes_, data, n / kBlockBytes);
  carry_bytes_ = n % kBlockBytes;
  std::memcpy(carry_, data + (n - carry_bytes_), carry_bytes_);
}

std::uint64_t TraceChecksum::value() const {
  if (legacy_) return fnv_;
  std::uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
  if (carry_bytes_ > 0) {
    char block[kBlockBytes] = {};
    std::memcpy(block, carry_, carry_bytes_);
    hash_blocks(lanes, block, 1);
  }
  // Folding the byte count in tells a payload from its zero-padded twin.
  std::uint64_t h = lane_step(kLaneSeeds[0], bytes_);
  for (const std::uint64_t lane : lanes) h = lane_step(h, lane);
  return h;
}

void TraceChecksum::reset() {
  fnv_ = kFnvOffset;
  std::copy(std::begin(kLaneSeeds), std::end(kLaneSeeds), lanes_);
  bytes_ = 0;
  carry_bytes_ = 0;
}

// ------------------------------------------------------------- decoder

RecordDecoder::RecordDecoder(std::istream& in, std::size_t chunk_records,
                             RecoveryReport* recovery)
    : in_(in),
      chunk_records_(std::clamp<std::size_t>(chunk_records, 1,
                                             kMaxChunkRecords)),
      recovery_(recovery) {
  char magic[4];
  in_.read(magic, 4);
  if (!in_ || std::memcmp(magic, kTraceMagic, 4) != 0) {
    read_fail("bad magic", 0);
  }
  // A short version field reads as version 0.
  if (!in_.read(reinterpret_cast<char*>(&version_), sizeof(version_))) {
    version_ = 0;
  }
  if (version_ == 0 || version_ > kTraceVersion) {
    read_fail("unsupported version " + std::to_string(version_), 4);
  }
  if (!in_.read(reinterpret_cast<char*>(&count_), sizeof(count_))) {
    read_fail("truncated header", 8);
  }
  record_bytes_ = version_ == 1   ? kRecordBytesV1
                  : version_ < 4 ? kRecordBytesV2
                                 : kRecordBytesV4;
  checksum_ = TraceChecksum(version_);
  end_ = count_;
}

std::size_t RecordDecoder::pending_records() const {
  // The buffer holds at most kMaxChunkRecords records, whatever the header
  // or the caller asks for: a corrupt count ends in the truncation
  // diagnostic of read_chunk, not in an allocation failure.
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_records_, end_ - next_record_));
}

bool RecordDecoder::read_chunk(std::size_t& n) {
  if (next_record_ >= end_) {
    if (!trailer_checked_) check_trailer();
    return false;
  }
  n = pending_records();
  buffer_.resize(n * record_bytes_);
  in_.read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  if (!in_) {
    // The first record the read could not complete is where the file is
    // truncated.
    n = static_cast<std::size_t>(std::max<std::streamsize>(0, in_.gcount())) /
        record_bytes_;
    const std::uint64_t at = next_record_ + n;
    const std::uint64_t offset = kHeaderBytes + at * record_bytes_;
    const std::string what = "truncated at " + record_of(at, count_);
    if (recovery_ == nullptr) read_fail(what, offset);
    recovery_->truncated_records = count_ - at;
    recovery_->missing_trailer = true;
    // Listed first: the truncation decides what the rest of the file holds.
    recovery_->first_errors.insert(recovery_->first_errors.begin(),
                                   at_offset(what, offset));
    if (recovery_->first_errors.size() > RecoveryReport::kMaxErrors) {
      recovery_->first_errors.pop_back();
    }
    end_ = at;
    trailer_checked_ = true;
  }
  checksum_.update(buffer_.data(), n * record_bytes_);
  return true;
}

void RecordDecoder::reject_class(std::size_t i, std::uint8_t cls) {
  const std::uint64_t at = next_record_ + i;
  const std::uint64_t offset = kHeaderBytes + at * record_bytes_;
  const std::string what = "invalid document class " + std::to_string(cls);
  if (recovery_ == nullptr) {
    read_fail(what + " at " + record_of(at, count_), offset);
  }
  ++recovery_->skipped;
  if (recovery_->first_errors.size() < RecoveryReport::kMaxErrors) {
    recovery_->first_errors.push_back(
        at_offset("skipped " + record_of(at, count_) + ": " + what, offset));
  }
}

void RecordDecoder::reject_dense_id(std::size_t i, std::uint32_t id) const {
  const std::uint64_t at = next_record_ + i;
  read_fail("dense id " + std::to_string(id) +
                " out of first-reference order at " + record_of(at, count_),
            kHeaderBytes + at * record_bytes_);
}

void RecordDecoder::reject_first_reference_flag(std::size_t i,
                                                std::uint32_t id) const {
  const std::uint64_t at = next_record_ + i;
  read_fail("size-changed flag on the first reference of dense id " +
                std::to_string(id) + " at " + record_of(at, count_),
            kHeaderBytes + at * record_bytes_);
}

bool RecordDecoder::next(std::vector<Request>& out,
                         std::vector<std::uint32_t>* dense) {
  // Room for the whole chunk up front: a stream's window is allocated once
  // at its final size, while a vector filled chunk by chunk still grows
  // geometrically.
  const std::size_t n = pending_records();
  if (out.capacity() - out.size() < n) {
    out.reserve(std::max(out.size() + n, 2 * out.capacity()));
  }
  if (dense == nullptr || !hands_out_dense_ids()) {
    return next(
        [&](const Request& r, std::uint32_t, bool) { out.push_back(r); });
  }
  return next([&](const Request& r, std::uint32_t id, bool) {
    out.push_back(r);
    dense->push_back(id);
  });
}

void RecordDecoder::check_trailer() {
  trailer_checked_ = true;
  if (has_size_changes() && !read_tail()) return;
  std::uint64_t digest = 0;
  const bool present =
      static_cast<bool>(in_.read(reinterpret_cast<char*>(&digest),
                                 sizeof(digest)));
  const bool match = present && digest == checksum_.value();
  if (recovery_ != nullptr) {
    recovery_->missing_trailer = !present;
    recovery_->checksum_mismatch = present && !match;
    return;
  }
  // Every record and the tail were read, so the trailer offset cannot
  // overflow.
  std::uint64_t trailer_offset = kHeaderBytes + count_ * record_bytes_;
  if (has_size_changes()) {
    trailer_offset += kTailSummaryBytes + 8 * tail_.changed_count;
  }
  if (!present) read_fail("truncated checksum trailer", trailer_offset);
  if (!match) {
    read_fail("checksum mismatch over " + std::to_string(count_) + " records",
              trailer_offset);
  }
  if (has_size_changes()) check_tail();
}

bool RecordDecoder::read_tail() {
  const std::uint64_t at = kHeaderBytes + count_ * record_bytes_;
  char summary[kTailSummaryBytes];
  if (!in_.read(summary, sizeof(summary))) {
    tail_damage("truncated tail summary",
                at + static_cast<std::uint64_t>(
                         std::max<std::streamsize>(0, in_.gcount())));
    return false;
  }
  checksum_.update(summary, sizeof(summary));
  const char* p = summary;
  decode_field(p, tail_.overall_size);
  decode_field(p, tail_.max_transfer);
  decode_field(p, tail_.changed_count);
  const std::uint64_t count_at = at + 16;
  // Checked before the column is read: no flagged record count can exceed
  // the records, so neither can the column's allocation.
  if (tail_.changed_count > count_) {
    tail_damage("tail changed_count " + std::to_string(tail_.changed_count) +
                    " exceeds the " + std::to_string(count_) + " records",
                count_at);
    return false;
  }
  // The column goes into the caller's vector, or is hashed through the
  // record buffer in bounded pieces.
  const std::uint64_t changed = tail_.changed_count;
  if (column_ != nullptr) column_->resize(static_cast<std::size_t>(changed));
  for (std::uint64_t done = 0; done < changed;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(changed - done, kMaxChunkRecords));
    char* dst = nullptr;
    if (column_ != nullptr) {
      dst = reinterpret_cast<char*>(column_->data() + done);
    } else {
      buffer_.resize(n * 8);
      dst = buffer_.data();
    }
    if (!in_.read(dst, static_cast<std::streamsize>(n * 8))) {
      const std::uint64_t whole =
          done + static_cast<std::uint64_t>(
                     std::max<std::streamsize>(0, in_.gcount())) / 8;
      tail_damage("truncated tail at previous size " + std::to_string(whole) +
                      " of " + std::to_string(changed),
                  at + kTailSummaryBytes + 8 * whole);
      return false;
    }
    checksum_.update(dst, n * 8);
    done += n;
  }
  return true;
}

void RecordDecoder::tail_damage(const std::string& what,
                                std::uint64_t offset) {
  if (recovery_ == nullptr) read_fail(what, offset);
  recovery_->missing_trailer = true;
  if (recovery_->first_errors.size() < RecoveryReport::kMaxErrors) {
    recovery_->first_errors.push_back(at_offset(what, offset));
  }
}

void RecordDecoder::check_tail() const {
  const std::uint64_t at = kHeaderBytes + count_ * record_bytes_;
  if (tail_.changed_count != flagged_) {
    read_fail("tail changed_count " + std::to_string(tail_.changed_count) +
                  ", but " + std::to_string(flagged_) + " of the " +
                  std::to_string(count_) +
                  " records carry the size-changed flag",
              at + 16);
  }
  if (tail_.max_transfer != max_transfer_) {
    read_fail("tail max_transfer " + std::to_string(tail_.max_transfer) +
                  ", but the largest transfer of the " +
                  std::to_string(count_) + " records is " +
                  std::to_string(max_transfer_),
              at + 8);
  }
}

void RecordDecoder::restart() {
  next_record_ = 0;
  documents_ = 0;
  flagged_ = 0;
  max_transfer_ = 0;
  tail_ = {};
  end_ = count_;
  trailer_checked_ = false;
  checksum_.reset();
}

std::ifstream open_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("binary trace: cannot open " + path);
  return in;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::size_t records_present(const RecordDecoder& decoder,
                            std::uint64_t file_bytes) {
  if (file_bytes <= kHeaderBytes) return 0;
  const std::uint64_t present =
      (file_bytes - kHeaderBytes) / decoder.record_bytes();
  return static_cast<std::size_t>(std::min(decoder.count(), present));
}

}  // namespace detail

// --------------------------------------------------------------- writer

void write_binary_trace(std::ostream& out, const Trace& trace) {
  out.write(kTraceMagic, 4);
  const std::uint32_t version = kTraceVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t count = trace.requests.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));

  // Records are encoded into a block that is hashed and written whole: one
  // checksum call and one write per block, not per 43-byte record. The
  // dense ids come from one IdMap pass, in first-reference order, and the
  // size-change flags, previous sizes and Overall Size from one
  // LastSizeTable indexed by them, exactly as DenseTraceBuilder derives
  // them from an older file. A block's ids are interned first, each
  // prefetching its table entry, so the table's cache misses overlap the
  // interning instead of adding to it.
  constexpr std::size_t kBlockRecords = 1024;
  std::vector<std::uint32_t> block_ids(kBlockRecords);
  detail::TraceChecksum checksum;
  IdMap ids;
  LastSizeTable last_sizes;
  last_sizes.reserve(trace.requests.size());
  std::vector<std::uint64_t> previous_sizes;
  std::uint64_t max_transfer = 0;
  std::vector<char> block(kBlockRecords * kRecordBytesV4);
  const std::vector<Request>& requests = trace.requests;
  for (std::size_t first = 0; first < requests.size();
       first += kBlockRecords) {
    const std::size_t last =
        std::min(requests.size(), first + kBlockRecords);
    for (std::size_t i = first; i < last; ++i) {
      const std::uint32_t id = ids.intern(requests[i].document);
      block_ids[i - first] = id;
      last_sizes.prefetch(id);
    }
    char* p = block.data();
    for (std::size_t i = first; i < last; ++i) {
      const Request& r = requests[i];
      const std::uint32_t id = block_ids[i - first];
      std::uint64_t previous = 0;
      const bool changed = last_sizes.record(r, id, previous);
      if (changed) previous_sizes.push_back(previous);
      max_transfer = std::max(max_transfer, r.transfer_size);
      encode_record(p, r, id, changed);
    }
    const std::size_t bytes = (last - first) * kRecordBytesV4;
    checksum.update(block.data(), bytes);
    out.write(block.data(), static_cast<std::streamsize>(bytes));
  }
  block.resize(detail::kTailSummaryBytes);
  char* p = block.data();
  encode(p, last_sizes.overall_size());
  encode(p, max_transfer);
  encode(p, static_cast<std::uint64_t>(previous_sizes.size()));
  checksum.update(block.data(), block.size());
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  const char* column = reinterpret_cast<const char*>(previous_sizes.data());
  const std::size_t column_bytes = previous_sizes.size() * 8;
  checksum.update(column, column_bytes);
  out.write(column, static_cast<std::streamsize>(column_bytes));
  const std::uint64_t digest = checksum.value();
  out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  if (!out) throw std::runtime_error("binary trace: write failed");
}

void write_binary_trace_file(const std::string& path, const Trace& trace) {
  // An existing file is overwritten in place and cut only where the new
  // trace is shorter. Truncating it first would free all its blocks, and
  // that can stall for longer than the write itself (ext4 mounted with
  // `discard`: 0.3-0.9 s for a 58 MB file, against 5 ms to overwrite it).
  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!out.is_open()) out.open(path, std::ios::binary | std::ios::out);
  if (!out) throw std::runtime_error("binary trace: cannot open " + path);
  write_binary_trace(out, trace);
  const auto written = static_cast<std::uintmax_t>(out.tellp());
  out.close();
  if (!out) throw std::runtime_error("binary trace: write failed");
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec) &&
      std::filesystem::file_size(path, ec) > written) {
    std::filesystem::resize_file(path, written, ec);
    if (ec) {
      throw std::runtime_error("binary trace: cannot cut " + path + ": " +
                               ec.message());
    }
  }
}

// -------------------------------------------------------------- loaders

Trace detail::read_records(RecordDecoder& decoder, std::uint64_t file_bytes) {
  Trace trace;
  trace.requests.reserve(records_present(decoder, file_bytes));
  while (decoder.next(trace.requests)) {
  }
  return trace;
}

Trace read_binary_trace(std::istream& in) {
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords);
  return detail::read_records(decoder, 0);
}

Trace read_binary_trace_file(const std::string& path) {
  std::ifstream in = detail::open_trace_file(path);
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords);
  return detail::read_records(decoder, detail::file_size_or_zero(path));
}

Trace read_binary_trace_file_recovering(const std::string& path,
                                        RecoveryReport& report) {
  report = RecoveryReport{};
  std::ifstream in = detail::open_trace_file(path);
  detail::RecordDecoder decoder(in, detail::kLoadChunkRecords, &report);
  Trace trace =
      detail::read_records(decoder, detail::file_size_or_zero(path));
  report.recovered = trace.requests.size();
  return trace;
}

// --------------------------------------------------- Trace aggregates

std::uint64_t Trace::requested_bytes() const {
  std::uint64_t total = 0;
  for (const Request& r : requests) total += r.transfer_size;
  return total;
}

std::uint64_t Trace::distinct_documents() const {
  IdMap ids;
  for (const Request& r : requests) ids.intern(r.document);
  return ids.size();
}

std::uint64_t Trace::overall_size_bytes() const {
  // Walking backwards, a document's first appearance is its last request,
  // so each size is added once and nothing is written per request.
  IdMap ids;
  std::uint64_t total = 0;
  for (auto r = requests.rbegin(); r != requests.rend(); ++r) {
    const std::size_t known = ids.size();
    ids.intern(r->document);
    if (ids.size() > known) total += r->document_size;
  }
  return total;
}

}  // namespace webcache::trace
