#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/stats_sink.hpp"
#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"
#include "trace/id_map.hpp"
#include "trace/request_stream.hpp"
#include "trace/stream_ids.hpp"
#include "util/state_io.hpp"

namespace webcache::sim {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'W', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 6;
constexpr const char* kFileSuffix = ".wckp";

thread_local std::vector<std::string> g_resume_diagnostics;

/// Environment-variable crash/fault hooks (0 when unset).
std::uint64_t checkpoint_env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::strtoull(value, nullptr, 10);
}

/// Zero-padded "checkpoint-<consumed>.wckp" file name.
std::string checkpoint_file_name(std::uint64_t consumed) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%020llu%s",
                static_cast<unsigned long long>(consumed), kFileSuffix);
  return buf;
}

/// All checkpoint files in `dir`, sorted ascending by name (the zero-padded
/// request index makes lexicographic order chronological).
std::vector<fs::path> list_checkpoints(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, kFileSuffix) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open file");
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("read error");
  return bytes;
}

// Bounds-checked cursor over a raw checkpoint image (the container layer;
// section payloads go through util::StateReader instead).
struct ByteCursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) const {
    if (pos + n > size) {
      throw std::runtime_error(std::string("truncated file reading ") + what);
    }
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
};

/// Where a WCKP image goes: memory (encode_checkpoint) or a checkpoint
/// file. Keeps a running CRC-32 of the bytes appended since restart_crc(),
/// so a section's CRC is known once its payload is out.
class ImageOutput : public util::StateSpill {
 public:
  void spill(const std::uint8_t* data, std::size_t n) final {
    crc_ = util::crc32(data, n, crc_);
    append(data, n);
  }
  void restart_crc() { crc_ = 0; }
  std::uint32_t crc() const { return crc_; }
  /// Overwrites `n` bytes appended earlier, starting at `offset`.
  virtual void patch(std::uint64_t offset, const std::uint8_t* data,
                     std::size_t n) = 0;

 protected:
  ~ImageOutput() = default;
  virtual void append(const std::uint8_t* data, std::size_t n) = 0;

 private:
  std::uint32_t crc_ = 0;
};

class MemoryImage final : public ImageOutput {
 public:
  void patch(std::uint64_t offset, const std::uint8_t* data,
             std::size_t n) override {
    std::memcpy(bytes.data() + offset, data, n);
  }

  std::vector<std::uint8_t> bytes;

 private:
  void append(const std::uint8_t* data, std::size_t n) override {
    bytes.insert(bytes.end(), data, data + n);
  }
};

/// A checkpoint file written from offset 0 through one descriptor. It is
/// opened without O_TRUNC, so a recycled file is overwritten in place and
/// keeps its disk blocks; finish() cuts a tail the new image left over.
class FileImage final : public ImageOutput {
 public:
  explicit FileImage(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY, 0644);
    if (fd_ < 0) fail("cannot open", errno);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      const int err = errno;
      ::close(fd_);
      fail("cannot stat", err);
    }
    old_size_ = static_cast<std::uint64_t>(st.st_size);
  }
  FileImage(const FileImage&) = delete;
  FileImage& operator=(const FileImage&) = delete;
  ~FileImage() {
    if (fd_ >= 0) ::close(fd_);
  }

  void patch(std::uint64_t offset, const std::uint8_t* data,
             std::size_t n) override {
    write_at(offset, data, n);
  }

  /// Cuts the file to the image's size (a no-op unless a longer recycled
  /// file held it) and makes it durable.
  void finish() {
    if (old_size_ > size_ && ::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      fail("cannot truncate", errno);
    }
    if (::fsync(fd_) != 0) fail("fsync failed", errno);
  }

  /// The torn-write fault: keep half the image, as a failing disk might.
  void tear() {
    (void)::ftruncate(fd_, static_cast<off_t>(size_ / 2));
    (void)::fsync(fd_);
  }

 private:
  void append(const std::uint8_t* data, std::size_t n) override {
    write_at(size_, data, n);
    size_ += n;
  }

  void write_at(std::uint64_t offset, const std::uint8_t* data,
                std::size_t n) {
    while (n > 0) {
      const ssize_t k = ::pwrite(fd_, data, n, static_cast<off_t>(offset));
      if (k < 0) {
        if (errno == EINTR) continue;
        fail("write failed", errno);
      }
      data += k;
      n -= static_cast<std::size_t>(k);
      offset += static_cast<std::uint64_t>(k);
    }
  }

  [[noreturn]] void fail(const char* what, int err) const {
    throw std::runtime_error("checkpoint: " + std::string(what) + " '" +
                             path_ + "': " + std::strerror(err));
  }

  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;      // image bytes written
  std::uint64_t old_size_ = 0;  // size of the recycled file, 0 when fresh
};

/// The one WCKP encoder: the file header, then per section its header and
/// the payload `save` writes. Payloads go through a StateWriter that spills
/// into the output, so the encoder holds about 1 MiB however large the
/// state; a section's length and CRC are patched in once its payload is
/// out.
class CheckpointEncoder {
 public:
  CheckpointEncoder(ImageOutput& out, std::uint32_t section_count)
      : out_(out), w_(&out) {
    w_.put_bytes(kMagic, sizeof(kMagic));
    w_.put_u32(kVersion);
    w_.put_u32(section_count);
  }

  template <typename Save>
  void section(const std::string& name, Save&& save) {
    w_.put_u32(static_cast<std::uint32_t>(name.size()));
    w_.put_bytes(name.data(), name.size());
    const std::uint64_t fields = w_.size();
    w_.put_u64(0);  // payload length
    w_.put_u32(0);  // payload CRC
    w_.flush();
    const std::uint64_t payload = w_.size();
    out_.restart_crc();
    save(w_);
    w_.flush();
    util::StateWriter patch;
    patch.put_u64(w_.size() - payload);
    patch.put_u32(out_.crc());
    out_.patch(fields, patch.bytes().data(), patch.bytes().size());
  }

 private:
  ImageOutput& out_;
  util::StateWriter w_;
};

}  // namespace

const std::vector<std::string>& checkpoint_resume_diagnostics() {
  return g_resume_diagnostics;
}

namespace detail {

std::vector<std::uint8_t> encode_checkpoint(
    const std::vector<CheckpointSection>& sections) {
  MemoryImage image;
  CheckpointEncoder encoder(image,
                            static_cast<std::uint32_t>(sections.size()));
  for (const CheckpointSection& s : sections) {
    encoder.section(s.name, [&s](util::StateWriter& w) {
      w.put_bytes(s.payload.data(), s.payload.size());
    });
  }
  return std::move(image.bytes);
}

std::vector<CheckpointSection> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
  ByteCursor c{bytes.data(), bytes.size()};
  c.need(sizeof(kMagic), "magic");
  if (std::memcmp(c.data, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("bad magic (not a WCKP checkpoint)");
  }
  c.pos += sizeof(kMagic);
  const std::uint32_t version = c.u32("version");
  if (version != kVersion) {
    throw std::runtime_error("unsupported checkpoint version " +
                             std::to_string(version));
  }
  const std::uint32_t count = c.u32("section count");
  // Every section header takes at least 16 bytes (name length, payload
  // length, CRC), so the bytes left bound the count before it sizes memory.
  if (count > (c.size - c.pos) / 16) {
    throw std::runtime_error("section count " + std::to_string(count) +
                             " exceeds the " + std::to_string(c.size - c.pos) +
                             " byte(s) left");
  }
  std::vector<CheckpointSection> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = c.u32("section name length");
    if (name_len > 256) {
      throw std::runtime_error("section name length out of range");
    }
    c.need(name_len, "section name");
    std::string name(reinterpret_cast<const char*>(c.data + c.pos), name_len);
    c.pos += name_len;
    const std::uint64_t payload_len = c.u64("section length");
    const std::uint32_t stored_crc = c.u32("section CRC");
    if (payload_len > c.size - c.pos) {
      throw std::runtime_error("truncated section '" + name + "'");
    }
    std::vector<std::uint8_t> payload(
        c.data + c.pos, c.data + c.pos + static_cast<std::size_t>(payload_len));
    c.pos += static_cast<std::size_t>(payload_len);
    if (util::crc32(payload.data(), payload.size()) != stored_crc) {
      throw std::runtime_error("section '" + name + "': CRC mismatch");
    }
    sections.push_back({std::move(name), std::move(payload)});
  }
  if (c.pos != c.size) {
    throw std::runtime_error("trailing bytes after last section");
  }
  return sections;
}

void save_sim_result(util::StateWriter& w, const SimResult& result) {
  const auto save_hits = [&w](const HitCounters& h) {
    w.put_u64(h.requests);
    w.put_u64(h.hits);
    w.put_u64(h.requested_bytes);
    w.put_u64(h.hit_bytes);
  };
  w.put_string(result.policy_name);
  w.put_u64(result.capacity_bytes);
  save_hits(result.overall);
  for (const HitCounters& h : result.per_class) save_hits(h);
  w.put_u64(result.warmup_requests);
  w.put_u64(result.measured_requests);
  w.put_u64(result.evictions);
  w.put_u64(result.bypasses);
  w.put_double(result.miss_latency_ms);
  w.put_double(result.all_miss_latency_ms);
  w.put_u64(result.modification_misses);
  w.put_u64(result.interrupted_transfers);
  w.put_u64(result.faults.events_applied);
  w.put_u64(result.faults.failovers);
  w.put_u64(result.faults.lost_requests);
  w.put_u64(result.faults.lost_bytes);
  w.put_u64(result.faults.probe_timeouts);
  w.put_u64(result.faults.origin_fetches);
}

SimResult restore_sim_result(util::StateReader& r) {
  const auto restore_hits = [&r](HitCounters& h) {
    h.requests = r.take_u64();
    h.hits = r.take_u64();
    h.requested_bytes = r.take_u64();
    h.hit_bytes = r.take_u64();
  };
  SimResult result;
  result.policy_name = r.take_string();
  result.capacity_bytes = r.take_u64();
  restore_hits(result.overall);
  for (HitCounters& h : result.per_class) restore_hits(h);
  result.warmup_requests = r.take_u64();
  result.measured_requests = r.take_u64();
  result.evictions = r.take_u64();
  result.bypasses = r.take_u64();
  result.miss_latency_ms = r.take_double();
  result.all_miss_latency_ms = r.take_double();
  result.modification_misses = r.take_u64();
  result.interrupted_transfers = r.take_u64();
  result.faults.events_applied = r.take_u64();
  result.faults.failovers = r.take_u64();
  result.faults.lost_requests = r.take_u64();
  result.faults.lost_bytes = r.take_u64();
  result.faults.probe_timeouts = r.take_u64();
  result.faults.origin_fetches = r.take_u64();
  return result;
}

void save_fingerprint(util::StateWriter& w, const CheckpointFingerprint& fp) {
  w.put_string(fp.policy_description);
  w.put_u64(fp.capacity_bytes);
  w.put_double(fp.warmup_fraction);
  w.put_u8(fp.modification_rule);
  w.put_double(fp.modification_threshold);
  w.put_double(fp.latency_setup_ms);
  w.put_double(fp.latency_bytes_per_ms);
  w.put_u64(fp.window_requests);
  w.put_string(fp.trace_source);
  w.put_u64(fp.total_requests);
  w.put_u64(fp.seed);
}

CheckpointFingerprint restore_fingerprint(util::StateReader& r) {
  CheckpointFingerprint fp;
  fp.policy_description = r.take_string();
  fp.capacity_bytes = r.take_u64();
  fp.warmup_fraction = r.take_double();
  fp.modification_rule = r.take_u8();
  fp.modification_threshold = r.take_double();
  fp.latency_setup_ms = r.take_double();
  fp.latency_bytes_per_ms = r.take_double();
  fp.window_requests = r.take_u64();
  fp.trace_source = r.take_string();
  fp.total_requests = r.take_u64();
  fp.seed = r.take_u64();
  return fp;
}

void validate_fingerprint(const CheckpointFingerprint& expected,
                          const CheckpointFingerprint& found,
                          const std::string& file) {
  const auto mismatch = [&](const std::string& field,
                            const std::string& checkpoint_value,
                            const std::string& run_value) {
    throw std::runtime_error(
        "checkpoint resume: fingerprint mismatch in '" + file + "': " +
        field + " (checkpoint " + checkpoint_value + ", run " + run_value +
        ")");
  };
  const auto num = [](auto v) { return std::to_string(v); };
  if (found.policy_description != expected.policy_description) {
    mismatch("policy", "'" + found.policy_description + "'",
             "'" + expected.policy_description + "'");
  }
  if (found.capacity_bytes != expected.capacity_bytes) {
    mismatch("capacity_bytes", num(found.capacity_bytes),
             num(expected.capacity_bytes));
  }
  if (found.warmup_fraction != expected.warmup_fraction) {
    mismatch("warmup_fraction", num(found.warmup_fraction),
             num(expected.warmup_fraction));
  }
  if (found.modification_rule != expected.modification_rule) {
    mismatch("modification_rule", num(found.modification_rule),
             num(expected.modification_rule));
  }
  if (found.modification_threshold != expected.modification_threshold) {
    mismatch("modification_threshold", num(found.modification_threshold),
             num(expected.modification_threshold));
  }
  if (found.latency_setup_ms != expected.latency_setup_ms) {
    mismatch("latency_setup_ms", num(found.latency_setup_ms),
             num(expected.latency_setup_ms));
  }
  if (found.latency_bytes_per_ms != expected.latency_bytes_per_ms) {
    mismatch("latency_bytes_per_ms", num(found.latency_bytes_per_ms),
             num(expected.latency_bytes_per_ms));
  }
  if (found.window_requests != expected.window_requests) {
    mismatch("window_requests", num(found.window_requests),
             num(expected.window_requests));
  }
  if (found.trace_source != expected.trace_source) {
    mismatch("trace_source", "'" + found.trace_source + "'",
             "'" + expected.trace_source + "'");
  }
  if (found.total_requests != expected.total_requests) {
    mismatch("total_requests", num(found.total_requests),
             num(expected.total_requests));
  }
  if (found.seed != expected.seed) {
    mismatch("seed", num(found.seed), num(expected.seed));
  }
}

void save_ids(util::StateWriter& w,
              std::span<const trace::DocumentId> keys) {
  w.put_u64(keys.size());
  for (const trace::DocumentId key : keys) w.put_u64(key);
}

void restore_ids(util::StateReader& r, trace::IdMap& ids) {
  const std::uint64_t n = r.take_count(8, "document id");
  for (std::uint64_t i = 0; i < n; ++i) {
    const trace::DocumentId key = r.take_u64();
    if (ids.intern(key) != i) {
      r.fail("document id " + std::to_string(key) + " repeated at position " +
             std::to_string(i));
    }
  }
}

// Resume selection, retention and the checkpointed replay loop.
namespace {

/// Required-section lookup with a named diagnostic.
const CheckpointSection& need_section(
    const std::vector<CheckpointSection>& sections, const std::string& name,
    const std::string& file) {
  for (const CheckpointSection& s : sections) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("checkpoint '" + file + "': missing section '" +
                           name + "'");
}

struct SelectedCheckpoint {
  std::string file;  // file name (not full path), for diagnostics
  std::vector<CheckpointSection> sections;
};

/// Newest structurally valid checkpoint in `dir`. Damaged files are skipped
/// with a recorded diagnostic; if files exist but none validate, throws —
/// the caller asked to resume and silently cold-starting would discard the
/// run they meant to continue.
std::optional<SelectedCheckpoint> select_resume_checkpoint(
    const std::string& dir) {
  g_resume_diagnostics.clear();
  std::error_code ec;
  if (!fs::exists(dir, ec)) return std::nullopt;
  std::vector<fs::path> files = list_checkpoints(dir);
  if (files.empty()) return std::nullopt;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    try {
      std::vector<std::uint8_t> bytes = read_file_bytes(*it);
      SelectedCheckpoint selected;
      selected.sections = decode_checkpoint(bytes);
      selected.file = it->filename().string();
      if (it != files.rbegin()) {
        // Fell back past damaged newer checkpoints; the run will redo the
        // small window since this older snapshot.
        g_resume_diagnostics.push_back("resuming from older checkpoint '" +
                                       selected.file + "'");
      }
      return selected;
    } catch (const std::exception& e) {
      g_resume_diagnostics.push_back("rejected '" + it->filename().string() +
                                     "': " + e.what());
    }
  }
  std::string all;
  for (const std::string& d : g_resume_diagnostics) {
    if (!all.empty()) all += "; ";
    all += d;
  }
  throw std::runtime_error("checkpoint resume: no usable checkpoint in '" +
                           dir + "' (" + all + ")");
}

/// Writes checkpoint file `name` into `dir` atomically: a temp file in the
/// same directory, fsync, rename to `name`, fsync the directory. The temp
/// file is the spare when there is one, overwritten in place, so the write
/// frees no disk blocks. `emit` writes the image into the file. Honors the
/// WEBCACHE_CHECKPOINT_CRASH_AT_WRITE torn-write fault hook.
template <typename Emit>
void write_checkpoint_file(const std::string& dir, const std::string& name,
                           Emit&& emit) {
  // Torn-write fault hook: on the k-th checkpoint write of this process,
  // truncate the temp file to half, rename it anyway, and die — simulating
  // a kernel/media failure that breaks the temp file *before* rename makes
  // it visible. The resulting file must be rejected on resume.
  static std::uint64_t write_number = 0;
  const std::uint64_t crash_at_write =
      checkpoint_env_u64("WEBCACHE_CHECKPOINT_CRASH_AT_WRITE");
  ++write_number;

  const fs::path path = fs::path(dir) / name;
  const std::string tmp = path.string() + ".tmp";
  // Without a spare the rename fails and the temp file starts fresh (or
  // reuses a stale temp file of the same name in place).
  const std::string spare = (fs::path(dir) / kSpareCheckpointFile).string();
  (void)std::rename(spare.c_str(), tmp.c_str());
  {
    FileImage file(tmp);
    emit(file);
    if (crash_at_write != 0 && write_number == crash_at_write) {
      file.tear();
      (void)std::rename(tmp.c_str(), path.c_str());
      std::raise(SIGKILL);
    }
    file.finish();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename '" + tmp + "' -> '" +
                             path.string() + "' failed: " +
                             std::strerror(errno));
  }
  // Persist the rename itself: fsync the containing directory.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

/// Retention: keep the newest `keep` checkpoint files. The oldest excess
/// file becomes the spare the next write recycles; once a spare exists,
/// the rest are unlinked.
void prune_checkpoints(const std::string& dir, std::size_t keep) {
  if (keep == 0) keep = 1;
  const std::vector<fs::path> files = list_checkpoints(dir);
  const fs::path spare = fs::path(dir) / kSpareCheckpointFile;
  std::error_code ec;
  for (std::size_t i = 0; i + keep < files.size(); ++i) {
    if (fs::exists(spare, ec)) {
      fs::remove(files[i], ec);
    } else {
      fs::rename(files[i], spare, ec);
    }
  }
}

/// Fingerprint of a checkpointed run: the identity of the replayed state
/// machine.
CheckpointFingerprint make_stream_fingerprint(
    const cache::CacheFrontend& frontend, const trace::RequestStream& stream,
    const StreamCheckpointJob& job) {
  CheckpointFingerprint fp;
  fp.policy_description = frontend.description();
  fp.capacity_bytes = frontend.capacity_bytes();
  fp.warmup_fraction = job.options.warmup_fraction;
  fp.modification_rule =
      static_cast<std::uint8_t>(job.options.modification_rule);
  fp.modification_threshold = job.options.modification_threshold;
  fp.latency_setup_ms = job.options.latency_setup_ms;
  fp.latency_bytes_per_ms = job.options.latency_bytes_per_ms;
  fp.window_requests = job.sink != nullptr ? job.sink->window_requests() : 0;
  fp.trace_source = job.checkpoint.trace_source;
  fp.total_requests = stream.total_requests();
  fp.seed = job.checkpoint.seed;
  return fp;
}

template <typename Sink>
CheckpointedRun run_checkpointed(trace::RequestStream& stream,
                                 cache::CacheFrontend& frontend,
                                 const StreamCheckpointJob& job,
                                 const CheckpointFingerprint& fp, Sink& sink) {
  namespace fs = std::filesystem;
  constexpr bool kRecording = kRecordingSink<Sink>;

  const CheckpointConfig& config = job.checkpoint;
  // Documents are numbered as they stream in, from the stream's stored
  // dense ids or by interning, and the last-size tracker and the
  // frontend's dense universe follow the ids numbered so far. Reserving
  // exactly those lets the id-indexed vectors grow geometrically
  // underneath, so memory tracks the distinct documents. The order of the
  // two growths decides how their reallocations interleave on the heap;
  // tracker first peaked 0.6 MB lower on a 0.8 M-request RTP stream
  // checkpointed every 200 k requests (21.6 against 22.2 MB).
  trace::StreamIds ids;
  DenseLastSize last_size;
  std::uint64_t reserved = 0;
  const auto reserve_interned = [&] {
    if (ids.size() > reserved) {
      reserved = ids.size();
      last_size.grow(reserved);
      frontend.reserve_dense_ids(reserved);
    }
  };

  if constexpr (kRecording) sink.begin_run(frontend);
  ReplayCore core(frontend, job.options, sink, stream.total_requests());

  CheckpointedRun out;
  std::uint64_t skip = 0;
  if (config.resume) {
    if (auto selected = select_resume_checkpoint(config.dir)) {
      const std::string& file = selected->file;
      const auto reader = [&](const char* name) {
        const CheckpointSection& s =
            need_section(selected->sections, name, file);
        return util::StateReader(s.payload.data(), s.payload.size(), s.name);
      };
      {
        auto r = reader("fingerprint");
        validate_fingerprint(fp, restore_fingerprint(r), file);
        r.expect_end();
      }
      std::uint64_t consumed = 0;
      {
        auto r = reader("result");
        consumed = r.take_u64();
        core.restore(consumed, restore_sim_result(r));
        r.expect_end();
      }
      {
        auto r = reader("ids");
        trace::IdMap known;
        restore_ids(r, known);
        r.expect_end();
        ids = trace::StreamIds(std::move(known));
        reserve_interned();
      }
      {
        auto r = reader("cache");
        r.bound_ids(ids.size());
        frontend.restore_state(r);
        r.expect_end();
      }
      {
        auto r = reader("lastsize");
        r.bound_ids(ids.size());
        last_size.restore_state(r);
        r.expect_end();
        last_size.grow(ids.size());
      }
      if constexpr (kRecording) {
        auto r = reader("metrics");
        sink.restore_state(r);
        r.expect_end();
      }
      skip = consumed;
      out.resumed_from = consumed;
      stream.reset();
    }
  }

  const std::uint64_t crash_at = checkpoint_env_u64("WEBCACHE_CRASH_AT_REQUEST");
  const auto write_checkpoint = [&] {
    const auto emit = [&](ImageOutput& file) {
      CheckpointEncoder e(file, kRecording ? 6 : 5);
      e.section("fingerprint",
                [&](util::StateWriter& w) { save_fingerprint(w, fp); });
      e.section("result", [&](util::StateWriter& w) {
        w.put_u64(core.consumed());
        save_sim_result(w, core.result());
      });
      e.section("ids",
                [&](util::StateWriter& w) { save_ids(w, ids.keys()); });
      e.section("cache",
                [&](util::StateWriter& w) { frontend.save_state(w); });
      e.section("lastsize",
                [&](util::StateWriter& w) { last_size.save_state(w); });
      if constexpr (kRecording) {
        e.section("metrics",
                  [&](util::StateWriter& w) { sink.save_state(w); });
      }
    };
    write_checkpoint_file(config.dir, checkpoint_file_name(core.consumed()),
                          emit);
    prune_checkpoints(config.dir, config.keep);
    ++out.checkpoints_written;
  };

  if (config.every != 0) {
    std::error_code ec;
    fs::create_directories(config.dir, ec);
  }

  const std::uint64_t stop = config.stop_after_requests;
  for (auto chunk = stream.next_chunk(); !chunk.empty();
       chunk = stream.next_chunk()) {
    // The chunk's stored dense ids (none unless the stream stores them)
    // are cut into the same batches as the chunk.
    std::span<const std::uint32_t> stored = stream.dense_ids();
    const auto advance = [&](std::size_t n) {
      chunk = chunk.subspan(n);
      if (!stored.empty()) stored = stored.subspan(n);
    };
    // Fast-forward after resume: requests up to the checkpoint were
    // already accounted; they must not touch the restored ids or
    // last-size state again.
    const auto skipped =
        static_cast<std::size_t>(std::min<std::uint64_t>(skip, chunk.size()));
    skip -= skipped;
    advance(skipped);
    while (!chunk.empty()) {
      // A batch ends at the next checkpoint or stop, so a checkpoint's id
      // map holds exactly the documents replayed so far.
      const std::uint64_t done = core.consumed();
      std::uint64_t n = chunk.size();
      if (config.every != 0) {
        n = std::min(n, config.every - done % config.every);
      }
      if (stop > done) n = std::min(n, stop - done);
      const auto batch = chunk.first(static_cast<std::size_t>(n));
      // Number the whole batch before replaying it: an interning run's
      // id-map probes and the cache's then miss in separate tight loops,
      // not in turns.
      const std::span<const std::uint32_t> batch_ids = ids.number(
          batch, stored.empty() ? stored : stored.first(batch.size()));
      advance(batch.size());
      reserve_interned();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (crash_at != 0 && core.consumed() + 1 == crash_at) {
          std::raise(SIGKILL);
        }
        trace::ReplayRecord r{batch[i].transfer_size, batch_ids[i],
                              batch[i].doc_class};
        const std::uint64_t previous = last_size.mark(r);
        core.step(r, previous);
      }

      const std::uint64_t now = core.consumed();
      const bool stopping = stop != 0 && now == stop;
      if (config.every != 0 && (now % config.every == 0 || stopping)) {
        write_checkpoint();
      }
      if (stopping) {
        if constexpr (kRecording) sink.end_run();
        out.result = core.finish();
        out.stopped_early = true;
        return out;
      }
    }
  }
  if constexpr (kRecording) sink.end_run();
  out.result = core.finish();
  return out;
}

}  // namespace

}  // namespace detail

CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             cache::CacheFrontend& frontend,
                                             const StreamCheckpointJob& job) {
  detail::validate_options(job.options);
  if ((job.checkpoint.every != 0 || job.checkpoint.resume) &&
      job.checkpoint.dir.empty()) {
    throw std::invalid_argument(
        "simulate_stream_checkpointed: checkpoint dir required");
  }
  const CheckpointFingerprint fp =
      detail::make_stream_fingerprint(frontend, stream, job);
  return detail::dispatch_replay(job.sink, [&](auto& sink) {
    return detail::run_checkpointed(stream, frontend, job, fp, sink);
  });
}

CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             std::uint64_t capacity_bytes,
                                             const cache::PolicySpec& policy,
                                             const StreamCheckpointJob& job) {
  cache::Cache cache(capacity_bytes, cache::make_policy(policy));
  return simulate_stream_checkpointed(stream, cache, job);
}

}  // namespace webcache::sim
