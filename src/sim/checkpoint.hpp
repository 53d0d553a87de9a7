// Crash-safe checkpoint/resume for the streaming replay pipeline.
//
// A long replay is a deterministic state machine: (trace, frontend config,
// options, schedule, seed) fully determine every counter. simulate_stream_
// checkpointed() is the one streamed replay loop (simulate_stream() runs it
// with no checkpoints), and every `every` requests it serializes the
// complete run state — policy and object table (CacheFrontend::save_state),
// last-size tracker, the stream's document-id map, metrics windows,
// accumulated SimResult, fault-schedule cursor position — into a
// versioned, per-section-CRC'd checkpoint file, written
// atomically (temp file + fsync + rename + directory fsync). A run killed
// at any instant — including mid-checkpoint-write — resumes from the newest
// valid checkpoint and finishes with counters, latency doubles and
// webcache.metrics.v1 windows bit-identical to an uninterrupted run
// (tests/cli/cli_crash_test.py kills and resumes real processes to pin
// this).
//
// The writer frees no disk blocks and holds about 1 MiB of serialized
// state, however large the run. Freeing the blocks of a synced file can
// stall for a long time (ext4 mounted with `discard`: 60–200 ms at 3 MB),
// so pruning renames the oldest excess checkpoint to the directory's one
// spare file (detail::kSpareCheckpointFile; further excess files are
// unlinked), and the next write renames the spare to its temp name and
// overwrites it in place, cutting it only when the new image is shorter.
// Each section streams through a StateWriter that spills every 1 MiB to
// the file under a running CRC-32; the section header's length and CRC are
// patched in afterwards. The files are byte-identical to ones written
// fresh.
//
// Torn, truncated, bit-flipped or stale files are rejected with a named
// diagnostic (never silently restored): structural damage falls back to the
// next-older checkpoint, a fingerprint mismatch (different policy, trace,
// seed, options...) aborts the resume outright — resuming a run under a
// different configuration would produce confidently wrong numbers.
//
// File format (all integers little-endian):
//   magic "WCKP" | u32 version | u32 section_count
//   then per section:
//     u32 name_len | name bytes | u64 payload_len | u32 crc32(payload) |
//     payload
// Sections: "fingerprint", "result", "ids" (the original document ids in
// dense-id order, the same bytes whether the stream's ids were interned or
// read from a WCT1 v4 file; every id in "cache" and "lastsize" must be
// below their count), "cache", "lastsize", and optionally "metrics"
// (instrumented runs; each window's snapshot carries per-class occupancy).
// Version 5 (one recency-list layout, CLOCK included: the ids MRU to LRU,
// then the promotion rule's state); older files are rejected as
// unsupported.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "trace/id_map.hpp"
#include "trace/request_stream.hpp"

namespace webcache::sim {

/// Run identity captured in every checkpoint and re-validated on resume.
/// Two runs with equal fingerprints replay the same deterministic state
/// machine, so a checkpoint from one may seed the other.
struct CheckpointFingerprint {
  std::string policy_description;  // CacheFrontend::description()
  std::uint64_t capacity_bytes = 0;
  double warmup_fraction = 0.0;
  std::uint8_t modification_rule = 0;
  double modification_threshold = 0.0;
  double latency_setup_ms = 0.0;
  double latency_bytes_per_ms = 0.0;
  std::uint64_t window_requests = 0;  // 0 = uninstrumented run
  std::uint64_t fault_hash = 0;       // 0 = no fault schedule
  std::string trace_source;           // caller-chosen trace identity tag
  std::uint64_t total_requests = 0;
  std::uint64_t seed = 0;  // workload seed (0 when not applicable)
};

/// FNV-1a hash over the schedule's events and probe parameters; folded into
/// the fingerprint so a checkpoint can never resume under a different fault
/// scenario.
std::uint64_t fault_schedule_hash(const FaultSchedule& schedule);

struct CheckpointConfig {
  /// Directory holding the checkpoint ring; created if absent.
  std::string dir;
  /// Checkpoint cadence in requests (0 = never write; the run is then
  /// bit-identical to simulate_stream by construction — no per-request
  /// bookkeeping is added).
  std::uint64_t every = 0;
  /// Retention: newest `keep` checkpoint files survive, older ones are
  /// pruned after each successful write. The first pruned file becomes the
  /// directory's spare, which the next write overwrites instead of
  /// allocating a new file; so the directory holds `keep` checkpoints plus
  /// at most one spare that resume never reads.
  std::size_t keep = 3;
  /// Resume from the newest valid checkpoint in `dir` (cold start when the
  /// directory holds none).
  bool resume = false;
  /// Trace identity recorded in the fingerprint (e.g. file path + record
  /// count, or a generator spec string).
  std::string trace_source;
  /// Workload seed recorded in the fingerprint.
  std::uint64_t seed = 0;
  /// Test seam: stop (after writing a final checkpoint, when `every` > 0)
  /// once this many requests have been replayed; 0 = run to the end. The
  /// in-process round-trip tests use it to split a run without killing the
  /// process.
  std::uint64_t stop_after_requests = 0;
};

struct CheckpointedRun {
  SimResult result;
  /// Request index the run resumed from (0 = cold start).
  std::uint64_t resumed_from = 0;
  std::uint64_t checkpoints_written = 0;
  /// True when stop_after_requests ended the run early (result is partial).
  bool stopped_early = false;
};

/// Optional collaborators for the streamed replay, passed the way every
/// engine takes them (simulate, simulate_hierarchy): a null sink or
/// schedule runs the uninstrumented or fault-free instantiation. The plain
/// simulate_stream overloads fill in the same job with no checkpoints.
struct StreamCheckpointJob {
  SimulatorOptions options{};
  CheckpointConfig checkpoint{};
  obs::RecordingSink* sink = nullptr;      // optional instrumentation
  const FaultSchedule* faults = nullptr;   // optional fault scenario
};

/// The streamed replay. Every request's document is numbered densely as
/// the chunks are read (trace::StreamIds): from the stream's stored ids
/// when it has them (RequestStream::dense_ids, a WCT1 v4 file), else
/// through one trace::IdMap. The frontend runs dense
/// (CacheFrontend::reserve_dense_ids, extended as new documents arrive),
/// so the frontend must start empty. A checkpoint of either kind resumes
/// on the other: both number documents in first-reference order. With
/// checkpoint.every == 0 and checkpoint.resume == false it is
/// simulate_stream. Throws
/// std::runtime_error on unusable checkpoint state (fingerprint mismatch,
/// an id past the "ids" count, or a resume where every candidate file is
/// corrupt); structurally invalid files are skipped with a named reason
/// (retrievable via checkpoint_resume_diagnostics() for the last resume
/// attempt on this thread).
CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             cache::CacheFrontend& frontend,
                                             const StreamCheckpointJob& job);

/// PolicySpec-taking form: runs the overload above on a fresh
/// cache::Cache(capacity_bytes, make_policy(policy)).
CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             std::uint64_t capacity_bytes,
                                             const cache::PolicySpec& policy,
                                             const StreamCheckpointJob& job);

/// Diagnostics (file name + reason) for checkpoint files skipped during the
/// most recent resume attempt on this thread; empty when the newest file
/// validated cleanly.
const std::vector<std::string>& checkpoint_resume_diagnostics();

// ---- exposed for the corruption fuzz suite and the CLI ----

namespace detail {

/// One parsed checkpoint section.
struct CheckpointSection {
  std::string name;
  std::vector<std::uint8_t> payload;
};

/// The checkpoint directory's spare: a pruned checkpoint, which the next
/// write recycles as its temp file. The name never matches
/// checkpoint-*.wckp, so resume never reads it.
inline constexpr char kSpareCheckpointFile[] = "checkpoint.spare";

/// Serializes sections into the WCKP container format (the same encoder
/// that writes checkpoint files, writing into memory).
std::vector<std::uint8_t> encode_checkpoint(
    const std::vector<CheckpointSection>& sections);

/// Parses and CRC-validates a WCKP image. Throws std::runtime_error with a
/// named diagnostic ("bad magic", "section 'cache': CRC mismatch", ...) on
/// any structural damage.
std::vector<CheckpointSection> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes);

/// Serialize / restore a SimResult (used by the "result" section and by
/// tests).
void save_sim_result(util::StateWriter& w, const SimResult& result);
SimResult restore_sim_result(util::StateReader& r);

/// Serialize / validate a fingerprint. validate() throws std::runtime_error
/// naming the first mismatching field.
void save_fingerprint(util::StateWriter& w, const CheckpointFingerprint& fp);
CheckpointFingerprint restore_fingerprint(util::StateReader& r);
void validate_fingerprint(const CheckpointFingerprint& expected,
                          const CheckpointFingerprint& found,
                          const std::string& file);

/// Serialize / restore the "ids" section: the original ids in dense-id
/// order. restore_ids re-interns them into an empty map and throws a
/// StateError on a repeated key or a count the payload cannot hold.
void save_ids(util::StateWriter& w, std::span<const trace::DocumentId> keys);
void restore_ids(util::StateReader& r, trace::IdMap& ids);

}  // namespace detail

}  // namespace webcache::sim
