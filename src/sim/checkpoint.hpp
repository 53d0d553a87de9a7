// Crash-safe checkpoint/resume for the streaming replay pipeline.
//
// A long replay is a deterministic state machine: (trace, frontend config,
// options, schedule, seed) fully determine every counter. simulate_stream_
// checkpointed() drives the same ReplayCore as simulate_stream(), but every
// `every` requests it serializes the complete run state — policy and object
// table (CacheFrontend::save_state), last-size tracker, online densifier
// mapping, metrics windows, accumulated SimResult, fault-schedule cursor
// position — into a versioned, per-section-CRC'd checkpoint file, written
// atomically (temp file + fsync + rename + directory fsync). A run killed
// at any instant — including mid-checkpoint-write — resumes from the newest
// valid checkpoint and finishes with counters, latency doubles and
// webcache.metrics.v1 windows bit-identical to an uninterrupted run
// (tests/cli/cli_crash_test.py kills and resumes real processes to pin
// this).
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
// Sections: "fingerprint", "result", "cache", "lastsize", and optionally
// "densifier" (densified runs) and "metrics" (instrumented runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/frontend.hpp"
#include "obs/stats_sink.hpp"
#include "sim/faults.hpp"
#include "sim/simulator.hpp"
#include "trace/online_densify.hpp"
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
  std::uint32_t occupancy_samples = 0;
  double latency_setup_ms = 0.0;
  double latency_bytes_per_ms = 0.0;
  bool densified = false;
  std::uint64_t hot_capacity = 0;     // densified runs only
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
  /// pruned after each successful write.
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

/// Optional collaborators for the checkpointed replay. The four
/// combinations of {densified, sink} x {faults, none} dispatch to the same
/// ReplayCore instantiations the plain simulate_stream overloads use.
struct StreamCheckpointJob {
  SimulatorOptions options{};
  CheckpointConfig checkpoint{};
  bool densified = false;
  trace::OnlineDensifier::Options densify_options{};
  obs::RecordingSink* sink = nullptr;      // optional instrumentation
  const FaultSchedule* faults = nullptr;   // optional fault scenario
};

/// The checkpointed streaming replay. With checkpoint.every == 0 and
/// checkpoint.resume == false this replays exactly like the matching
/// simulate_stream overload. Throws std::runtime_error on unusable
/// checkpoint state (fingerprint mismatch, or a resume where every
/// candidate file is corrupt); structurally invalid files are skipped with
/// a named reason (retrievable via checkpoint_resume_diagnostics() for the
/// last resume attempt on this thread).
CheckpointedRun simulate_stream_checkpointed(trace::RequestStream& stream,
                                             cache::CacheFrontend& frontend,
                                             const StreamCheckpointJob& job);

/// PolicySpec-taking form: builds a SingleCacheFrontend (LRU-Threshold
/// specs install their admission limit) and runs the overload above.
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

/// Serializes sections into the WCKP container format.
std::vector<std::uint8_t> encode_checkpoint(
    const std::vector<CheckpointSection>& sections);

/// Parses and CRC-validates a WCKP image. Throws std::runtime_error with a
/// named diagnostic ("bad magic", "section 'cache': CRC mismatch", ...) on
/// any structural damage.
std::vector<CheckpointSection> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes);

/// Atomically writes `bytes` to `path`: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. Honors the
/// WEBCACHE_CHECKPOINT_CRASH_AT_WRITE torn-write fault hook.
void atomic_write_file(const std::string& path,
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

}  // namespace detail

}  // namespace webcache::sim
