#include "sim/checkpoint.hpp"

#include <fcntl.h>
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
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/last_size.hpp"
#include "sim/replay_core.hpp"
#include "trace/online_densify.hpp"
#include "trace/request_stream.hpp"
#include "util/state_io.hpp"

namespace webcache::sim {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'W', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;
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

}  // namespace

std::uint64_t fault_schedule_hash(const FaultSchedule& schedule) {
  util::StateWriter w;
  w.put_u64(schedule.events.size());
  for (const FaultEvent& e : schedule.events) {
    w.put_u64(e.at_request);
    w.put_u8(static_cast<std::uint8_t>(e.kind));
    w.put_u32(e.node);
  }
  w.put_u32(schedule.max_probe_retries);
  w.put_double(schedule.probe_timeout_rate);
  w.put_u64(schedule.seed);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const std::uint8_t b : w.bytes()) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;  // 0 is reserved for "no schedule"
}

const std::vector<std::string>& checkpoint_resume_diagnostics() {
  return g_resume_diagnostics;
}

namespace detail {

std::vector<std::uint8_t> encode_checkpoint(
    const std::vector<CheckpointSection>& sections) {
  util::StateWriter w;
  w.put_bytes(kMagic, sizeof(kMagic));
  w.put_u32(kVersion);
  w.put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const CheckpointSection& s : sections) {
    w.put_u32(static_cast<std::uint32_t>(s.name.size()));
    w.put_bytes(s.name.data(), s.name.size());
    w.put_u64(s.payload.size());
    w.put_u32(util::crc32(s.payload.data(), s.payload.size()));
    w.put_bytes(s.payload.data(), s.payload.size());
  }
  return w.take();
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

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // Torn-write fault hook: on the k-th checkpoint write of this process,
  // truncate the temp file to half, rename it anyway, and die — simulating
  // a kernel/media failure that breaks the temp file *before* rename makes
  // it visible. The resulting file must be rejected on resume.
  static std::uint64_t write_number = 0;
  const std::uint64_t crash_at_write =
      checkpoint_env_u64("WEBCACHE_CHECKPOINT_CRASH_AT_WRITE");
  ++write_number;

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint: cannot create '" + tmp +
                             "': " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("checkpoint: write to '" + tmp +
                               "' failed: " + std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
  if (crash_at_write != 0 && write_number == crash_at_write) {
    (void)::ftruncate(fd, static_cast<off_t>(bytes.size() / 2));
    (void)::fsync(fd);
    (void)::close(fd);
    (void)std::rename(tmp.c_str(), path.c_str());
    std::raise(SIGKILL);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("checkpoint: fsync of '" + tmp +
                             "' failed: " + std::strerror(err));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename '" + tmp + "' -> '" + path +
                             "' failed: " + std::strerror(errno));
  }
  // Persist the rename itself: fsync the containing directory.
  const std::string dir = fs::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                         O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
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
  w.put_u64(result.occupancy_series.size());
  for (const OccupancySample& s : result.occupancy_series) {
    w.put_u64(s.request_index);
    for (const std::uint64_t v : s.occupancy.objects) w.put_u64(v);
    for (const std::uint64_t v : s.occupancy.bytes) w.put_u64(v);
    w.put_u64(s.occupancy.total_objects);
    w.put_u64(s.occupancy.total_bytes);
  }
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
  const std::uint64_t samples = r.take_count(
      8 * (3 + 2 * trace::kDocumentClassCount), "occupancy sample");
  result.occupancy_series.reserve(static_cast<std::size_t>(samples));
  for (std::uint64_t i = 0; i < samples; ++i) {
    OccupancySample s;
    s.request_index = r.take_u64();
    for (std::uint64_t& v : s.occupancy.objects) v = r.take_u64();
    for (std::uint64_t& v : s.occupancy.bytes) v = r.take_u64();
    s.occupancy.total_objects = r.take_u64();
    s.occupancy.total_bytes = r.take_u64();
    result.occupancy_series.push_back(s);
  }
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
  w.put_u32(fp.occupancy_samples);
  w.put_double(fp.latency_setup_ms);
  w.put_double(fp.latency_bytes_per_ms);
  w.put_bool(fp.densified);
  w.put_u64(fp.hot_capacity);
  w.put_u64(fp.window_requests);
  w.put_u64(fp.fault_hash);
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
  fp.occupancy_samples = r.take_u32();
  fp.latency_setup_ms = r.take_double();
  fp.latency_bytes_per_ms = r.take_double();
  fp.densified = r.take_bool();
  fp.hot_capacity = r.take_u64();
  fp.window_requests = r.take_u64();
  fp.fault_hash = r.take_u64();
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
  if (found.occupancy_samples != expected.occupancy_samples) {
    mismatch("occupancy_samples", num(found.occupancy_samples),
             num(expected.occupancy_samples));
  }
  if (found.latency_setup_ms != expected.latency_setup_ms) {
    mismatch("latency_setup_ms", num(found.latency_setup_ms),
             num(expected.latency_setup_ms));
  }
  if (found.latency_bytes_per_ms != expected.latency_bytes_per_ms) {
    mismatch("latency_bytes_per_ms", num(found.latency_bytes_per_ms),
             num(expected.latency_bytes_per_ms));
  }
  if (found.densified != expected.densified) {
    mismatch("densified", num(found.densified), num(expected.densified));
  }
  if (found.hot_capacity != expected.hot_capacity) {
    mismatch("hot_capacity", num(found.hot_capacity),
             num(expected.hot_capacity));
  }
  if (found.window_requests != expected.window_requests) {
    mismatch("window_requests", num(found.window_requests),
             num(expected.window_requests));
  }
  if (found.fault_hash != expected.fault_hash) {
    mismatch("fault_schedule", num(found.fault_hash),
             num(expected.fault_hash));
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

/// Retention: keep the newest `keep` checkpoint files, drop older ones.
void prune_checkpoints(const std::string& dir, std::size_t keep) {
  if (keep == 0) keep = 1;
  std::vector<fs::path> files = list_checkpoints(dir);
  std::error_code ec;
  while (files.size() > keep) {
    fs::remove(files.front(), ec);
    files.erase(files.begin());
  }
}

/// The sparse last-size map cannot reserve for the whole stream (that is
/// the point of streaming); cap the up-front reservation and let it grow.
std::size_t stream_reserve_hint(std::uint64_t total_requests) {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_requests, 1 << 20));
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
  fp.occupancy_samples = job.options.occupancy_samples;
  fp.latency_setup_ms = job.options.latency_setup_ms;
  fp.latency_bytes_per_ms = job.options.latency_bytes_per_ms;
  fp.densified = job.densified;
  fp.hot_capacity = job.densified ? job.densify_options.hot_capacity : 0;
  fp.window_requests = job.sink != nullptr ? job.sink->window_requests() : 0;
  fp.fault_hash = job.faults != nullptr ? fault_schedule_hash(*job.faults) : 0;
  fp.trace_source = job.checkpoint.trace_source;
  fp.total_requests = stream.total_requests();
  fp.seed = job.checkpoint.seed;
  return fp;
}

template <bool Densified, typename Sink, typename Faults>
CheckpointedRun run_checkpointed(trace::RequestStream& stream,
                                 cache::CacheFrontend& frontend,
                                 const StreamCheckpointJob& job,
                                 const CheckpointFingerprint& fp, Sink& sink,
                                 Faults* faults) {
  namespace fs = std::filesystem;
  constexpr bool kRecording = std::is_same_v<Sink, obs::RecordingSink>;
  using LastSize = std::conditional_t<Densified, GrowingDenseLastSize,
                                      SparseLastSize>;
  constexpr bool kFaulted = !std::is_same_v<Faults, NoFaultReplay>;

  const CheckpointConfig& config = job.checkpoint;
  auto last_size = [&] {
    if constexpr (Densified) {
      return LastSize{};
    } else {
      return LastSize(stream_reserve_hint(stream.total_requests()));
    }
  }();
  std::optional<trace::OnlineDensifier> densifier;
  if constexpr (Densified) densifier.emplace(job.densify_options);

  if constexpr (kRecording) sink.begin_run(frontend);
  ReplayCore<LastSize, Sink, Faults> core(
      frontend, job.options, last_size, sink, stream.total_requests(), faults);

  CheckpointedRun out;
  std::uint64_t skip = 0;
  if (config.resume) {
    if (auto selected = select_resume_checkpoint(config.dir)) {
      const std::string& file = selected->file;
      const auto reader = [&](const CheckpointSection& s) {
        return util::StateReader(s.payload.data(), s.payload.size(), s.name);
      };
      {
        auto r = reader(need_section(selected->sections, "fingerprint", file));
        validate_fingerprint(fp, restore_fingerprint(r), file);
        r.expect_end();
      }
      std::uint64_t consumed = 0;
      {
        auto r = reader(need_section(selected->sections, "result", file));
        consumed = r.take_u64();
        core.restore(consumed, restore_sim_result(r));
        r.expect_end();
      }
      {
        auto r = reader(need_section(selected->sections, "cache", file));
        frontend.restore_state(r);
        r.expect_end();
      }
      {
        auto r = reader(need_section(selected->sections, "lastsize", file));
        last_size.restore_state(r);
        r.expect_end();
      }
      if constexpr (Densified) {
        auto r = reader(need_section(selected->sections, "densifier", file));
        densifier->restore_state(r);
        r.expect_end();
      }
      if constexpr (kRecording) {
        auto r = reader(need_section(selected->sections, "metrics", file));
        sink.restore_state(r);
        r.expect_end();
      }
      if constexpr (kFaulted) {
        // The schedule prefix is pure state: replay it without side effects
        // (the crashed-cache contents and the sink's event counters were
        // already restored above).
        faults->advance(consumed, [](std::uint32_t, obs::FaultEventKind) {});
      }
      skip = consumed;
      out.resumed_from = consumed;
      stream.reset();
    }
  }

  const std::uint64_t crash_at = checkpoint_env_u64("WEBCACHE_CRASH_AT_REQUEST");
  const auto write_checkpoint = [&] {
    std::vector<CheckpointSection> sections;
    const auto add = [&sections](const char* name, util::StateWriter&& w) {
      sections.push_back({name, w.take()});
    };
    {
      util::StateWriter w;
      save_fingerprint(w, fp);
      add("fingerprint", std::move(w));
    }
    {
      util::StateWriter w;
      w.put_u64(core.consumed());
      save_sim_result(w, core.result());
      add("result", std::move(w));
    }
    {
      util::StateWriter w;
      frontend.save_state(w);
      add("cache", std::move(w));
    }
    {
      util::StateWriter w;
      last_size.save_state(w);
      add("lastsize", std::move(w));
    }
    if constexpr (Densified) {
      util::StateWriter w;
      densifier->save_state(w);
      add("densifier", std::move(w));
    }
    if constexpr (kRecording) {
      util::StateWriter w;
      sink.save_state(w);
      add("metrics", std::move(w));
    }
    const fs::path path =
        fs::path(config.dir) / checkpoint_file_name(core.consumed());
    atomic_write_file(path.string(), encode_checkpoint(sections));
    prune_checkpoints(config.dir, config.keep);
    ++out.checkpoints_written;
  };

  if (config.every != 0) {
    std::error_code ec;
    fs::create_directories(config.dir, ec);
  }

  for (auto chunk = stream.next_chunk(); !chunk.empty();
       chunk = stream.next_chunk()) {
    for (const trace::Request& r : chunk) {
      if (skip > 0) {
        // Fast-forward after resume: requests up to the checkpoint were
        // already accounted; they must not touch the restored densifier or
        // last-size state again.
        --skip;
        continue;
      }
      if (crash_at != 0 && core.consumed() + 1 == crash_at) {
        std::raise(SIGKILL);
      }
      if constexpr (Densified) {
        trace::Request dense = r;
        dense.document = densifier->densify(r.document);
        core.step(dense);
      } else {
        core.step(r);
      }
      const std::uint64_t done = core.consumed();
      const bool stopping = config.stop_after_requests != 0 &&
                            done == config.stop_after_requests;
      if (config.every != 0 && (done % config.every == 0 || stopping)) {
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

template <bool Densified, typename Sink>
CheckpointedRun dispatch_faults(trace::RequestStream& stream,
                                cache::CacheFrontend& frontend,
                                const StreamCheckpointJob& job,
                                const CheckpointFingerprint& fp, Sink& sink) {
  if (job.faults != nullptr) {
    FaultRun run(*job.faults, frontend.fault_domains(), /*has_root=*/false);
    return run_checkpointed<Densified, Sink, FaultRun>(stream, frontend, job,
                                                       fp, sink, &run);
  }
  return run_checkpointed<Densified, Sink, NoFaultReplay>(stream, frontend,
                                                          job, fp, sink,
                                                          nullptr);
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
  if (job.densified) {
    if (job.sink != nullptr) {
      return detail::dispatch_faults<true>(stream, frontend, job, fp,
                                           *job.sink);
    }
    obs::NullSink null;
    return detail::dispatch_faults<true>(stream, frontend, job, fp, null);
  }
  if (job.sink != nullptr) {
    return detail::dispatch_faults<false>(stream, frontend, job, fp,
                                          *job.sink);
  }
  obs::NullSink null;
  return detail::dispatch_faults<false>(stream, frontend, job, fp, null);
}

CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             std::uint64_t capacity_bytes,
                                             const cache::PolicySpec& policy,
                                             const StreamCheckpointJob& job) {
  cache::SingleCacheFrontend frontend(capacity_bytes,
                                     cache::make_policy(policy),
                                     detail::admission_limit_of(policy));
  return simulate_stream_checkpointed(stream, frontend, job);
}

}  // namespace webcache::sim
