// webcache — command-line front end to the library.
//
// Subcommands:
//   generate      synthesize a workload (binary trace or Squid access.log)
//   convert       Squid access.log -> binary trace (with preprocessing)
//   export        binary trace -> Squid access.log
//   characterize  Tables 1-5 + concentration statistics for the traces
//   simulate      one policy, one cache size, full per-class report
//   sweep         the paper's cache-size ladder for a policy set
//   help          this text
//
// Examples:
//   webcache generate --profile=DFN --scale=0.01 --out=dfn.wct
//   webcache characterize dfn.wct rtp.wct
//   webcache simulate dfn.wct --policy='GD*(packet)' --cache-mb=64
//   webcache sweep dfn.wct --policies='LRU,LFU-DA,GDS(1),GD*(1)'
//   webcache convert access.log real.wct && webcache sweep real.wct
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/faults.hpp"
#include "sim/hierarchy.hpp"
#include "sim/replication.hpp"
#include "sim/reporter.hpp"
#include "sim/sampled_sweep.hpp"
#include "sim/sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile_io.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/preprocess.hpp"
#include "trace/streaming_trace.hpp"
#include "trace/squid_log_writer.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "workload/breakdown.hpp"
#include "workload/concentration.hpp"
#include "workload/drift.hpp"
#include "workload/locality.hpp"
#include "workload/report.hpp"
#include "workload/size_stats.hpp"
#include "workload/stack_distance.hpp"

namespace {

using namespace webcache;

int usage(std::ostream& os) {
  os << "usage: webcache <command> [args]\n"
        "\n"
        "  generate --profile=DFN|RTP | --profile-file=FILE.ini\n"
        "           [--scale=0.01] [--seed=42] --out=FILE\n"
        "           [--format=binary|squid]\n"
        "  profile  --profile=DFN|RTP --out=FILE.ini   (dump an editable\n"
        "           preset for --profile-file)\n"
        "  convert  ACCESS_LOG OUT.wct [--strict]   (--strict aborts on the\n"
        "           first malformed log line instead of skipping it)\n"
        "           [--recover]   (accepts a damaged IN.wct instead of a\n"
        "           log: undecodable records are skipped, a truncated tail\n"
        "           dropped, and a clean WCT1 file is rewritten; the\n"
        "           recovery summary names each skipped record and offset;\n"
        "           on a clean v1-v3 file this is the upgrade to v4, whose\n"
        "           stored dense ids spare simulate/sweep/--stream the\n"
        "           per-request intern)\n"
        "  export   IN.wct OUT.log\n"
        "  characterize TRACE... [--squid] [--windows=N]\n"
        "           (Table 1 has a column per trace; the other tables are\n"
        "            printed per trace, titled by its file stem)\n"
        "  simulate TRACE --policy=NAME [--cache-mb=N | --cache-fraction=F]\n"
        "           [--warmup=0.1] [--mod-rule=threshold|any|never] [--squid]\n"
        "           [--metrics-out=FILE[.json|.csv]] [--metrics-window=N]\n"
        "           (windowed per-class time series incl. aging L and GD*\n"
        "            beta traces; window defaults to ~1% of the trace)\n"
        "           [--stream [--chunk=65536]]\n"
        "           (--stream replays the binary trace file chunk by chunk\n"
        "            in memory that grows with the distinct documents, not\n"
        "            the trace — bit-identical results; needs --cache-mb\n"
        "            and is incompatible with --squid)\n"
        "           [--checkpoint-dir=DIR [--checkpoint-every=N]\n"
        "            [--checkpoint-keep=3] [--resume]] (crash-safe stream\n"
        "            replay: every N requests the full run state is written\n"
        "            atomically to DIR; --resume continues from the newest\n"
        "            valid checkpoint with bit-identical final results;\n"
        "            corrupt or mismatched checkpoints are rejected with a\n"
        "            named diagnostic — see docs/API.md)\n"
        "           [--result-out=FILE.json] (full-precision result dump —\n"
        "            doubles carry max_digits10, so bit-identity across\n"
        "            runs is byte-identity of the file)\n"
        "           [--recover] (permissive trace load: skip corrupt WCT1\n"
        "            records with per-record diagnostics; materialized\n"
        "            replay only, strict loading stays the default)\n"
        "  sweep    TRACE [--policies=A,B,...] [--fractions=F1,F2,...]\n"
        "           [--warmup=0.1] [--threads=0] [--squid]\n"
        "           [--curve-out=FILE.json] [--panels-out=PREFIX]\n"
        "           (prints hit-rate and byte-hit-rate panels, overall and\n"
        "            per document class — Figures 2-3 and Section 4.4;\n"
        "            --panels-out also writes each as\n"
        "            PREFIX_{hr,bhr}_{<class>,overall}.csv.\n"
        "            Every cell is one replay on a thread pool.\n"
        "            --curve-out exports webcache.sweep.v1 JSON)\n"
        "           [--sampling=off|on] [--sample-rate=0.01]\n"
        "           [--sample-seed=N]\n"
        "           (on = SHARDS sampling of LRU columns; sampled cells\n"
        "            carry error bars in the table and the JSON)\n"
        "           [--stream --capacities-mb=A,B,... [--sample-rate=R]\n"
        "            [--sample-seed=N] [--max-docs=N]]\n"
        "           (--stream runs the SHARDS-sampled LRU curve over the\n"
        "            binary trace file at bounded memory; capacities are\n"
        "            absolute whole MiB because fractions need the overall\n"
        "            trace size, which streaming never materializes)\n"
        "  hierarchy TRACE [--edges=4] [--edge-policy='GD*(1)']\n"
        "           [--edge-fraction=0.005] [--root-policy='GD*(packet)']\n"
        "           [--root-fraction=0.08] [--mesh] [--squid]\n"
        "           [--faults=FILE] [--fault-seed=N]\n"
        "           [--metrics-out=FILE[.json|.csv]] [--metrics-window=N]\n"
        "           (--faults replays a fault schedule: node outages,\n"
        "            degraded probes, recovery warm-up; see docs/API.md)\n"
        "  replicate --profile=DFN|RTP [--scale=0.005] [--seeds=5]\n"
        "           [--cache-fraction=0.04] [--policies=A,B,...]\n"
        "  stackdist TRACE [--squid]   (Mattson reuse-distance profile:\n"
        "           cold-miss floor + unit-LRU hit curve)\n"
        "  help\n"
        "\n"
        "Policies: LRU LFU-DA FIFO SIZE LFU LRU-MIN LRU-2 LRU-THOLD(bytes)\n"
        "          GDS(1|packet|latency) GDSF(...) GD*(...)[:beta=X]\n"
        "          GD*C(...) OPT (sweep only: the clairvoyant bound)\n"
        "          RANDOM[:seed=N] CLOCK DELAY-CLOCK[:k=N]\n"
        "          PROB-LRU[:p=X[,seed=N]] DELAY-LRU[:k=N] BATCH-LRU[:batch=N]\n";
  return 2;
}

trace::Trace load_trace(const std::string& path, bool squid_format,
                        bool strict = false) {
  if (!squid_format) return trace::read_binary_trace_file(path);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  trace::PreprocessStats stats;
  trace::ParseReport report;
  trace::Trace t = trace::preprocess_squid_log(in, &stats, &report, strict);
  std::cerr << "preprocessed " << stats.total_entries << " entries -> "
            << stats.accepted << " cacheable requests\n";
  if (report.total_rejected() > 0) {
    std::cerr << "parser: " << report.summary() << "\n";
  }
  return t;
}

/// The replays' load: a WCT1 v4 file comes back densely numbered as
/// stored, with no intern pass; older files intern as they decode, and
/// squid logs densify. Only the hierarchy asks for the client column.
trace::DenseTrace load_dense_trace(
    const std::string& path, bool squid_format,
    trace::ClientColumn clients = trace::ClientColumn::kSkip) {
  if (!squid_format) return trace::read_dense_trace_file(path, clients);
  return trace::densify(load_trace(path, /*squid_format=*/true), clients);
}

void print_recovery_summary(const trace::RecoveryReport& report);

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

sim::SimulatorOptions simulator_options(const util::Args& args) {
  sim::SimulatorOptions opts;
  opts.warmup_fraction = args.get_double("warmup", 0.10);
  if (!(opts.warmup_fraction >= 0.0 && opts.warmup_fraction < 1.0)) {
    throw std::invalid_argument("--warmup must be in [0, 1) (got '" +
                                args.get("warmup", "") + "')");
  }
  const std::string rule = args.get("mod-rule", "threshold");
  if (rule == "threshold") {
    opts.modification_rule = sim::ModificationRule::kThreshold;
  } else if (rule == "any") {
    opts.modification_rule = sim::ModificationRule::kAnyChange;
  } else if (rule == "never") {
    opts.modification_rule = sim::ModificationRule::kNever;
  } else {
    throw std::invalid_argument("--mod-rule must be threshold|any|never");
  }
  return opts;
}

synth::WorkloadProfile profile_by_name(const std::string& name) {
  if (name == "DFN") return synth::WorkloadProfile::DFN();
  if (name == "RTP") return synth::WorkloadProfile::RTP();
  throw std::invalid_argument("--profile must be DFN or RTP");
}

/// Creates `path` and lets `write` fill it; a path that cannot be opened,
/// written or flushed (a full disk shows only at close) fails the command
/// by name.
template <typename Write>
void write_file(const std::string& path, const Write& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write(out);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

int cmd_generate(const util::Args& args) {
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) throw std::invalid_argument("generate: --out required");
  const double scale = args.get_double("scale", 0.01);
  synth::GeneratorOptions gen;
  gen.seed = args.get_uint("seed", 42);

  const synth::WorkloadProfile profile =
      (args.has("profile-file")
           ? synth::load_profile_file(args.get("profile-file", ""))
           : profile_by_name(args.get("profile", "DFN")))
          .scaled(scale);
  const trace::Trace t = synth::TraceGenerator(profile, gen).generate();
  std::cerr << "generated " << t.total_requests() << " requests, "
            << t.distinct_documents() << " documents, "
            << util::fmt_bytes(static_cast<double>(t.requested_bytes()))
            << " requested\n";

  const std::string format = args.get("format", "binary");
  if (format == "binary") {
    trace::write_binary_trace_file(out_path, t);
  } else if (format == "squid") {
    write_file(out_path,
               [&](std::ostream& out) { trace::write_squid_log(out, t); });
  } else {
    throw std::invalid_argument("--format must be binary or squid");
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

int cmd_profile(const util::Args& args) {
  const std::string out_path = args.get("out", "");
  const synth::WorkloadProfile profile =
      profile_by_name(args.get("profile", "DFN"));
  if (out_path.empty()) {
    std::cout << synth::profile_to_text(profile);
  } else {
    synth::save_profile_file(out_path, profile);
    std::cerr << "wrote " << out_path << "\n";
  }
  return 0;
}

int cmd_convert(const util::Args& args) {
  if (args.positional().size() != 2) {
    throw std::invalid_argument("convert: need ACCESS_LOG and OUT.wct");
  }
  if (args.get_bool("recover", false)) {
    // Salvage mode: the input is a damaged WCT1 file, not an access log.
    // Decodable records survive, the rest is reported, and the output is a
    // clean strict-loadable WCT1 file of the current version, so a clean
    // v1-v3 input comes out upgraded to v4 with the same requests.
    trace::RecoveryReport report;
    const trace::Trace salvaged =
        trace::read_binary_trace_file_recovering(args.positional()[0], report);
    print_recovery_summary(report);
    trace::write_binary_trace_file(args.positional()[1], salvaged);
    std::cerr << "wrote " << args.positional()[1] << " ("
              << salvaged.total_requests() << " requests)\n";
    return 0;
  }
  const trace::Trace t = load_trace(args.positional()[0], /*squid=*/true,
                                    args.get_bool("strict", false));
  trace::write_binary_trace_file(args.positional()[1], t);
  std::cerr << "wrote " << args.positional()[1] << " (" << t.total_requests()
            << " requests)\n";
  return 0;
}

int cmd_export(const util::Args& args) {
  if (args.positional().size() != 2) {
    throw std::invalid_argument("export: need IN.wct and OUT.log");
  }
  const trace::Trace t = load_trace(args.positional()[0], /*squid=*/false);
  std::uint64_t lines = 0;
  write_file(args.positional()[1], [&](std::ostream& out) {
    lines = trace::write_squid_log(out, t);
  });
  std::cerr << "wrote " << lines << " log lines\n";
  return 0;
}

int cmd_characterize(const util::Args& args) {
  if (args.positional().empty()) {
    throw std::invalid_argument("characterize: need a trace file");
  }
  const auto windows =
      static_cast<std::size_t>(args.get_uint("windows", 0));
  // One Table 1 column per trace, then each trace's own tables, titled by
  // its file stem. Each trace is loaded, rendered and released in turn.
  std::vector<std::pair<std::string, workload::Breakdown>> properties;
  std::vector<util::Table> tables;
  for (const std::string& path : args.positional()) {
    const trace::Trace t = load_trace(path, args.get_bool("squid", false));
    const std::string name = std::filesystem::path(path).stem().string();
    const workload::Breakdown bd = workload::compute_breakdown(t);
    properties.emplace_back(name, bd);
    tables.push_back(workload::render_class_breakdown(name, bd));
    tables.push_back(workload::render_size_and_locality(
        name, workload::compute_size_stats(t), workload::compute_locality(t)));
    tables.push_back(workload::render_concentration(
        name, workload::compute_concentration(t)));
    if (windows > 0) {
      tables.push_back(workload::render_drift(
          workload::compute_drift(t, windows),
          name + " trace: workload drift across " +
              std::to_string(windows) + " windows"));
    }
  }
  workload::render_trace_properties(properties).print(std::cout);
  for (const util::Table& table : tables) table.print(std::cout);
  return 0;
}

/// N mebibytes of flag --KEY as bytes. A count whose byte size overflows
/// 64 bits is rejected by name instead of wrapping to a tiny cache.
std::uint64_t mib_bytes(const std::string& key, std::uint64_t mb) {
  if (mb > (std::numeric_limits<std::uint64_t>::max() >> 20)) {
    throw std::invalid_argument("--" + key + ": " + std::to_string(mb) +
                                " MiB overflows a 64-bit byte count");
  }
  return mb << 20;
}

/// --KEY=N mebibytes as bytes.
std::uint64_t mib_arg(const util::Args& args, const std::string& key,
                      std::uint64_t fallback_mb) {
  return mib_bytes(key, args.get_uint(key, fallback_mb));
}

/// sweep --curve-out: the webcache.sweep.v1 JSON of the whole sweep.
void write_curve_out(const util::Args& args, const sim::SweepResult& sweep) {
  if (!args.has("curve-out")) return;
  const std::string path = args.get("curve-out", "");
  write_file(path,
             [&](std::ostream& out) { sim::write_sweep_json(out, sweep); });
  std::cerr << "wrote sweep curves to " << path << "\n";
}

std::uint64_t capacity_from_args(const util::Args& args,
                                 const trace::DenseTrace& t) {
  if (args.has("cache-mb")) return mib_arg(args, "cache-mb", 64);
  return static_cast<std::uint64_t>(
      sim::fraction_bytes("--cache-fraction",
                          args.get_double("cache-fraction", 0.04),
                          t.overall_size_bytes()));
}

void print_simulate_report(const sim::SimResult& r, std::uint64_t capacity) {
  util::Table table(r.policy_name + " @ " +
                    util::fmt_bytes(static_cast<double>(capacity)) + " (" +
                    util::fmt_count(r.measured_requests) +
                    " measured requests)");
  table.set_header({"", "Requests", "Hit rate", "Byte hit rate"});
  for (const auto cls : trace::kAllDocumentClasses) {
    const sim::HitCounters& c = r.of(cls);
    table.add_row({std::string(trace::to_string(cls)),
                   util::fmt_count(c.requests),
                   util::fmt_fixed(c.hit_rate(), 4),
                   util::fmt_fixed(c.byte_hit_rate(), 4)});
  }
  table.add_row({"Overall", util::fmt_count(r.overall.requests),
                 util::fmt_fixed(r.overall.hit_rate(), 4),
                 util::fmt_fixed(r.overall.byte_hit_rate(), 4)});
  table.print(std::cout);
  std::cout << "evictions " << util::fmt_count(r.evictions)
            << ", modification misses "
            << util::fmt_count(r.modification_misses) << ", interrupts "
            << util::fmt_count(r.interrupted_transfers) << ", bypasses "
            << util::fmt_count(r.bypasses) << "\n"
            << "mean latency " << util::fmt_fixed(r.mean_latency_ms(), 1)
            << " ms (" << util::fmt_percent(r.latency_savings(), 1)
            << "% saved vs uncached)\n";
}

void print_recovery_summary(const trace::RecoveryReport& report) {
  std::cerr << "recovery: kept " << report.recovered << " records, skipped "
            << report.skipped << ", lost " << report.truncated_records
            << " to truncation"
            << (report.checksum_mismatch ? ", checksum mismatch" : "")
            << (report.missing_trailer ? ", checksum trailer missing" : "")
            << "\n";
  for (const std::string& err : report.first_errors) {
    std::cerr << "recovery: " << err << "\n";
  }
  if (report.clean()) std::cerr << "recovery: file was clean\n";
}

/// Full-precision result dump: doubles carry max_digits10 significant
/// digits, so two runs produce byte-identical files exactly when their
/// results are bit-identical — the crash-injection harness diffs these.
void write_result(std::ostream& out, const sim::SimResult& r) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const auto hits = [&out](const sim::HitCounters& h) {
    out << "{\"requests\":" << h.requests << ",\"hits\":" << h.hits
        << ",\"requested_bytes\":" << h.requested_bytes
        << ",\"hit_bytes\":" << h.hit_bytes << "}";
  };
  out << "{\"schema\":\"webcache.result.v1\",\"policy\":\"" << r.policy_name
      << "\",\"capacity_bytes\":" << r.capacity_bytes << ",\"overall\":";
  hits(r.overall);
  out << ",\"per_class\":[";
  for (std::size_t c = 0; c < r.per_class.size(); ++c) {
    if (c > 0) out << ",";
    hits(r.per_class[c]);
  }
  out << "],\"warmup_requests\":" << r.warmup_requests
      << ",\"measured_requests\":" << r.measured_requests
      << ",\"evictions\":" << r.evictions << ",\"bypasses\":" << r.bypasses
      << ",\"miss_latency_ms\":" << r.miss_latency_ms
      << ",\"all_miss_latency_ms\":" << r.all_miss_latency_ms
      << ",\"modification_misses\":" << r.modification_misses
      << ",\"interrupted_transfers\":" << r.interrupted_transfers
      << ",\"faults\":{\"events_applied\":" << r.faults.events_applied
      << ",\"failovers\":" << r.faults.failovers
      << ",\"lost_requests\":" << r.faults.lost_requests
      << ",\"lost_bytes\":" << r.faults.lost_bytes
      << ",\"probe_timeouts\":" << r.faults.probe_timeouts
      << ",\"origin_fetches\":" << r.faults.origin_fetches << "}}\n";
}

void write_result_json(const std::string& path, const sim::SimResult& r) {
  write_file(path, [&](std::ostream& out) { write_result(out, r); });
}

/// --metrics-window, by default about 1 % of the trace's requests.
std::uint64_t metrics_window(const util::Args& args,
                             std::uint64_t total_requests) {
  return args.get_uint("metrics-window",
                       std::max<std::uint64_t>(1, total_requests / 100));
}

/// Fault schedules drive only the cache hierarchy; any other command
/// refuses the flags rather than run fault-free.
void reject_fault_flags(const util::Args& args, const std::string& command) {
  for (const char* flag : {"faults", "fault-seed"}) {
    if (args.has(flag)) {
      throw std::invalid_argument(command + ": --" + flag +
                                  " is a hierarchy-only option (fault "
                                  "schedules drive `webcache hierarchy`)");
    }
  }
}

/// Writes the sink's windows to `path`: CSV for a .csv name, else the
/// JSON `write_json` renders with the run's result.
template <class Result>
void write_metrics_file(const std::string& path, const Result& r,
                        const obs::RecordingSink& sink,
                        void (*write_json)(std::ostream&, const Result&,
                                           const obs::MetricsSeries&)) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  write_file(path, [&](std::ostream& out) {
    if (csv) {
      sim::write_metrics_csv(out, sink.series());
    } else {
      write_json(out, r, sink.series());
    }
  });
  std::cerr << "wrote " << path << " (" << sink.series().windows.size()
            << " windows of " << sink.window_requests() << " requests)\n";
}

/// The stream checkpoints' trace tag: the WCT1 version, the header's record
/// count and the trailer digest, so a resume accepts the same trace under
/// any spelling or location of its path and refuses a different one.
std::string trace_identity(const trace::StreamingTraceReader& stream) {
  std::ostringstream tag;
  tag << "WCT1 v" << stream.version() << ", " << stream.total_requests()
      << " records, digest " << std::hex << std::setw(16) << std::setfill('0')
      << stream.stored_digest();
  return tag.str();
}

/// simulate --stream: chunked replay straight off the binary file. Results
/// are bit-identical to the materialized path; memory is O(chunk + distinct
/// documents).
int cmd_simulate_stream(const util::Args& args) {
  if (args.get_bool("squid", false)) {
    throw std::invalid_argument(
        "simulate: --stream reads the binary format only; run `webcache "
        "convert` first");
  }
  if (args.has("cache-fraction") || !args.has("cache-mb")) {
    throw std::invalid_argument(
        "simulate: --stream needs an absolute --cache-mb — cache fractions "
        "are relative to the overall trace size, which a streaming replay "
        "never materializes");
  }
  if (args.get_bool("recover", false)) {
    throw std::invalid_argument(
        "simulate: --recover needs a materialized replay (drop --stream) — "
        "or rewrite the damaged file first with `webcache convert --recover`");
  }
  const std::uint64_t capacity = mib_arg(args, "cache-mb", 64);
  const auto chunk =
      static_cast<std::size_t>(args.get_uint("chunk", 1 << 16));
  trace::StreamingTraceReader stream(args.positional()[0], chunk);

  const auto spec =
      cache::policy_spec_from_name(args.get("policy", "GD*(1)"));

  const std::string metrics_path = args.get("metrics-out", "");
  obs::RecordingSink sink(metrics_window(args, stream.total_requests()));

  // Without a checkpoint flag the job writes no checkpoints: the same
  // streamed replay, with no per-checkpoint work.
  const bool checkpointing = args.has("checkpoint-dir") ||
                             args.has("checkpoint-every") ||
                             args.get_bool("resume", false);

  sim::StreamCheckpointJob job;
  job.options = simulator_options(args);
  if (checkpointing) {
    job.checkpoint.dir = args.get("checkpoint-dir", "");
    job.checkpoint.every = args.get_uint("checkpoint-every", 1'000'000);
    job.checkpoint.keep = args.get_uint("checkpoint-keep", 3);
    job.checkpoint.resume = args.get_bool("resume", false);
    job.checkpoint.trace_source = trace_identity(stream);
  }
  if (!metrics_path.empty()) job.sink = &sink;
  const sim::CheckpointedRun run =
      sim::simulate_stream_checkpointed(stream, capacity, spec, job);
  const sim::SimResult& r = run.result;
  for (const std::string& note : sim::checkpoint_resume_diagnostics()) {
    std::cerr << "checkpoint: " << note << "\n";
  }
  if (run.resumed_from > 0) {
    std::cerr << "checkpoint: resumed after request " << run.resumed_from
              << "\n";
  }
  if (run.checkpoints_written > 0) {
    std::cerr << "checkpoint: wrote " << run.checkpoints_written
              << " checkpoint(s) to " << job.checkpoint.dir << "\n";
  }
  if (!metrics_path.empty()) {
    write_metrics_file(metrics_path, r, sink, sim::write_metrics_json);
  }
  if (args.has("result-out")) write_result_json(args.get("result-out", ""), r);
  print_simulate_report(r, capacity);
  return 0;
}

int cmd_simulate(const util::Args& args) {
  if (args.positional().empty()) {
    throw std::invalid_argument("simulate: need a trace file");
  }
  reject_fault_flags(args, "simulate");
  if (args.get_bool("stream", false)) return cmd_simulate_stream(args);
  if (args.has("checkpoint-dir") || args.has("checkpoint-every") ||
      args.get_bool("resume", false)) {
    throw std::invalid_argument(
        "simulate: checkpoints are a streaming-replay feature — add "
        "--stream (and --cache-mb)");
  }
  // Every replay below runs on flat arrays indexed by dense id. The
  // recovering loader ignores stored dense ids (a skipped record can drop
  // a first reference), so its trace is densified.
  const trace::DenseTrace t = [&args] {
    if (!args.get_bool("recover", false)) {
      return load_dense_trace(args.positional()[0],
                              args.get_bool("squid", false));
    }
    if (args.get_bool("squid", false)) {
      throw std::invalid_argument(
          "simulate: --recover salvages damaged WCT1 binary traces; the "
          "squid parser already skips malformed lines by default");
    }
    trace::RecoveryReport report;
    trace::Trace recovered =
        trace::read_binary_trace_file_recovering(args.positional()[0], report);
    print_recovery_summary(report);
    return trace::densify(recovered);
  }();
  const std::string policy = args.get("policy", "GD*(1)");
  const std::uint64_t capacity = capacity_from_args(args, t);
  const std::string metrics_path = args.get("metrics-out", "");

  // Instrumented replay: identical results, plus the windowed series.
  std::optional<obs::RecordingSink> sink;
  if (!metrics_path.empty()) {
    sink.emplace(metrics_window(args, t.total_requests()));
  }
  const sim::SimResult r =
      sim::simulate(t, capacity, cache::policy_spec_from_name(policy),
                    simulator_options(args), sink ? &*sink : nullptr);
  if (sink) {
    write_metrics_file(metrics_path, r, *sink, sim::write_metrics_json);
  }

  if (args.has("result-out")) write_result_json(args.get("result-out", ""), r);
  print_simulate_report(r, capacity);
  return 0;
}

/// sweep --stream: SHARDS-sampled LRU miss-ratio curve straight off the
/// binary file, at O(sampled documents) memory.
int cmd_sweep_stream(const util::Args& args) {
  if (args.get_bool("squid", false)) {
    throw std::invalid_argument(
        "sweep: --stream reads the binary format only; run `webcache "
        "convert` first");
  }
  if (!args.has("capacities-mb")) {
    throw std::invalid_argument(
        "sweep: --stream needs --capacities-mb=A,B,... — fractional ladders "
        "are relative to the overall trace size, which a streaming sweep "
        "never materializes");
  }
  sim::SampledSweepConfig config;
  config.simulator = simulator_options(args);
  for (const std::string& mb : split_list(args.get("capacities-mb", ""))) {
    config.capacities.push_back(
        mib_bytes("capacities-mb", util::parse_uint("capacities-mb", mb)));
  }
  config.sample_rate = args.get_double("sample-rate", 0.01);
  if (!(config.sample_rate > 0.0 && config.sample_rate <= 1.0)) {
    throw std::invalid_argument(
        "sweep: --sample-rate must be in (0, 1] with --stream (got " +
        args.get("sample-rate", "") + ")");
  }
  if (args.has("sample-seed")) {
    config.hash_seed = args.get_uint("sample-seed", config.hash_seed);
  }
  config.max_sampled_documents =
      static_cast<std::size_t>(args.get_uint("max-docs", 0));
  const auto chunk =
      static_cast<std::size_t>(args.get_uint("chunk", 1 << 16));

  trace::StreamingTraceReader stream(args.positional()[0], chunk);
  const sim::SampledSweep sweep(config);
  const sim::SampledCurve curve = sweep.run(stream);

  // Re-express the curve as a SweepResult so --curve-out reuses the
  // webcache.sweep.v1 writer (fractions are 0: the overall size is unknown).
  sim::SweepResult result;
  result.sampled = !curve.exact;
  result.sample_rate = curve.effective_rate;
  result.sample_seed = curve.hash_seed;
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    sim::SweepPoint point;
    point.capacity_bytes = curve.points[i].capacity_bytes;
    point.results.push_back(curve.results[i]);
    point.estimates.push_back({!curve.exact, curve.points[i].hit_rate_error,
                               curve.points[i].byte_hit_rate_error});
    result.points.push_back(std::move(point));
  }
  write_curve_out(args, result);

  util::Table table(
      curve.exact
          ? "LRU miss-ratio curve (exact)"
          : "LRU miss-ratio curve (SHARDS rate " +
                util::fmt_fixed(curve.effective_rate, 4) + ", " +
                util::fmt_count(curve.sampled_documents) +
                " sampled documents)");
  table.set_header({"Capacity", "Hit rate", "+/-", "Byte hit rate", "+/-"});
  for (const sim::SampledPoint& p : curve.points) {
    table.add_row({util::fmt_bytes(static_cast<double>(p.capacity_bytes)),
                   util::fmt_fixed(p.hit_rate, 4),
                   util::fmt_fixed(p.hit_rate_error, 4),
                   util::fmt_fixed(p.byte_hit_rate, 4),
                   util::fmt_fixed(p.byte_hit_rate_error, 4)});
  }
  table.print(std::cout);
  std::cout << util::fmt_count(curve.total_requests) << " requests ("
            << util::fmt_count(curve.sampled_requests) << " sampled), warmup "
            << util::fmt_count(curve.warmup_requests) << "\n";
  return 0;
}

int cmd_sweep(const util::Args& args) {
  if (args.positional().empty()) {
    throw std::invalid_argument("sweep: need a trace file");
  }
  reject_fault_flags(args, "sweep");
  if (args.get_bool("stream", false)) return cmd_sweep_stream(args);
  const trace::DenseTrace t =
      load_dense_trace(args.positional()[0], args.get_bool("squid", false));

  sim::SweepConfig config;
  config.simulator = simulator_options(args);
  const std::string policies =
      args.get("policies", "LRU,LFU-DA,GDS(1),GD*(1)");
  config.policies.clear();
  for (const std::string& name : split_list(policies)) {
    config.policies.push_back(cache::policy_spec_from_name(name));
  }
  if (args.has("fractions")) {
    config.cache_fractions.clear();
    for (const std::string& f : split_list(args.get("fractions", ""))) {
      config.cache_fractions.push_back(util::parse_double("fractions", f));
      sim::fraction_bytes("--fractions", config.cache_fractions.back(),
                          t.overall_size_bytes());
    }
  }
  config.threads = static_cast<std::uint32_t>(args.get_uint("threads", 0));
  const std::string sampling = args.get("sampling", "off");
  if (sampling == "off") {
    config.sampling = sim::SamplingMode::kOff;
  } else if (sampling == "on") {
    config.sampling = sim::SamplingMode::kOn;
  } else {
    throw std::invalid_argument(
        "sweep: --sampling must be on or off (got '" + sampling + "')");
  }
  config.sample_rate = args.get_double("sample-rate", config.sample_rate);
  if (args.has("sample-seed")) {
    config.sample_seed = args.get_uint("sample-seed", config.sample_seed);
  }

  const sim::SweepResult sweep = sim::run_sweep(t, config);
  if (sweep.sampled) {
    std::cerr << "sampled LRU columns at rate " << sweep.sample_rate
              << " (seed " << sweep.sample_seed << ")\n";
  }
  write_curve_out(args, sweep);

  // Each panel goes to stdout and, under --panels-out, to
  // PREFIX_<slug>.csv (the figure CSVs scripts/make_figures.sh plots).
  const std::string panels_prefix = args.get("panels-out", "");
  const auto emit = [&](const util::Table& table, const std::string& slug) {
    table.print(std::cout);
    if (panels_prefix.empty()) return;
    write_file(panels_prefix + "_" + slug + ".csv",
               [&](std::ostream& out) { out << table.to_csv(); });
  };
  emit(sim::render_sweep_overall(sweep, sim::Metric::kHitRate,
                                 "Overall hit rate"),
       "hr_overall");
  emit(sim::render_sweep_overall(sweep, sim::Metric::kByteHitRate,
                                 "Overall byte hit rate"),
       "bhr_overall");
  for (const auto cls : trace::kAllDocumentClasses) {
    const std::string name(trace::to_string(cls));
    emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kHitRate,
                                 name + ": hit rate"),
         "hr_" + name);
    emit(sim::render_sweep_panel(sweep, cls, sim::Metric::kByteHitRate,
                                 name + ": byte hit rate"),
         "bhr_" + name);
  }
  return 0;
}

int cmd_hierarchy(const util::Args& args) {
  if (args.positional().empty()) {
    throw std::invalid_argument("hierarchy: need a trace file");
  }
  const trace::DenseTrace t =
      load_dense_trace(args.positional()[0], args.get_bool("squid", false),
                       trace::ClientColumn::kLoad);

  sim::HierarchyConfig config;
  config.edge_count = static_cast<std::uint32_t>(args.get_uint("edges", 4));
  config.edge_policy =
      cache::policy_spec_from_name(args.get("edge-policy", "GD*(1)"));
  config.edge_capacity_bytes = static_cast<std::uint64_t>(
      sim::fraction_bytes("--edge-fraction",
                          args.get_double("edge-fraction", 0.005),
                          t.overall_size_bytes()));
  config.root_policy =
      cache::policy_spec_from_name(args.get("root-policy", "GD*(packet)"));
  config.root_capacity_bytes = static_cast<std::uint64_t>(
      sim::fraction_bytes("--root-fraction",
                          args.get_double("root-fraction", 0.08),
                          t.overall_size_bytes()));
  config.simulator = simulator_options(args);
  config.sibling_cooperation = args.get_bool("mesh", false);

  // The --faults schedule, its seed overridden by --fault-seed.
  std::optional<sim::FaultSchedule> schedule;
  if (args.has("faults")) {
    schedule = sim::load_fault_schedule_file(args.get("faults", ""));
    if (args.has("fault-seed")) schedule->seed = args.get_uint("fault-seed", 0);
  }

  // Instrumented replay: identical results, plus the windowed series (with
  // per-window availability and warm-up curves under --faults).
  const std::string metrics_path = args.get("metrics-out", "");
  std::optional<obs::RecordingSink> sink;
  if (!metrics_path.empty()) {
    sink.emplace(metrics_window(args, t.total_requests()));
  }
  const sim::HierarchyResult r =
      sim::simulate_hierarchy(t, config, sink ? &*sink : nullptr,
                              schedule ? &*schedule : nullptr);
  if (sink) {
    write_metrics_file(metrics_path, r, *sink,
                       sim::write_hierarchy_metrics_json);
  }

  util::Table table(std::to_string(config.edge_count) + " edges (" +
                    util::fmt_bytes(static_cast<double>(
                        config.edge_capacity_bytes)) +
                    " each) + root (" +
                    util::fmt_bytes(static_cast<double>(
                        config.root_capacity_bytes)) +
                    ")");
  table.set_header({"Metric", "Value"});
  table.add_row({"Edge hit rate", util::fmt_fixed(r.edge_hit_rate(), 4)});
  table.add_row({"Root hit rate (forwarded)",
                 util::fmt_fixed(r.root_hit_rate(), 4)});
  table.add_row({"Combined hit rate",
                 util::fmt_fixed(r.combined_hit_rate(), 4)});
  table.add_row({"Combined byte hit rate",
                 util::fmt_fixed(r.combined_byte_hit_rate(), 4)});
  table.add_row({"Origin traffic",
                 util::fmt_percent(r.origin_traffic_fraction(), 1) + "%"});
  table.add_row({"Root requests", util::fmt_count(r.root_requests)});
  if (config.sibling_cooperation) {
    table.add_row({"Sibling hits", util::fmt_count(r.sibling_hits.hits)});
  }
  if (schedule) {
    table.add_row({"Fault events applied",
                   util::fmt_count(r.faults.events_applied)});
    table.add_row({"Failovers", util::fmt_count(r.faults.failovers)});
    table.add_row({"Lost requests", util::fmt_count(r.faults.lost_requests)});
    table.add_row({"Origin fetches (root down)",
                   util::fmt_count(r.faults.origin_fetches)});
    table.add_row({"Probe timeouts", util::fmt_count(r.faults.probe_timeouts)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_replicate(const util::Args& args) {
  const synth::WorkloadProfile profile =
      profile_by_name(args.get("profile", "DFN"))
          .scaled(args.get_double("scale", 0.005));

  sim::ReplicationConfig config;
  config.replications =
      static_cast<std::uint32_t>(args.get_uint("seeds", 5));
  config.base_seed = args.get_uint("seed", 42);
  config.cache_fraction = args.get_double("cache-fraction", 0.04);
  config.simulator = simulator_options(args);

  std::vector<cache::PolicySpec> policies;
  for (const std::string& name :
       split_list(args.get("policies", "LRU,LFU-DA,GDS(1),GD*(1)"))) {
    policies.push_back(cache::policy_spec_from_name(name));
  }

  const auto results = sim::run_replicated(profile, policies, config);
  util::Table table(profile.name + ": mean ± 95% CI over " +
                    std::to_string(config.replications) + " seeds");
  table.set_header({"Policy", "HR mean", "HR ±", "BHR mean", "BHR ±"});
  for (const auto& r : results) {
    table.add_row({r.policy_name, util::fmt_fixed(r.hit_rate.mean(), 4),
                   util::fmt_fixed(r.hit_rate.ci95_half_width(), 4),
                   util::fmt_fixed(r.byte_hit_rate.mean(), 4),
                   util::fmt_fixed(r.byte_hit_rate.ci95_half_width(), 4)});
  }
  table.print(std::cout);
  // Which hit-rate differences survive seed noise, for every pair.
  for (std::size_t a = 0; a < results.size(); ++a) {
    for (std::size_t b = a + 1; b < results.size(); ++b) {
      std::cout << results[a].policy_name << " vs " << results[b].policy_name
                << " (hit rate): "
                << (sim::clearly_separated(results[a].hit_rate,
                                           results[b].hit_rate)
                        ? "separated beyond seed noise"
                        : "NOT separated")
                << " (" << util::fmt_fixed(results[a].hit_rate.mean(), 4)
                << " vs " << util::fmt_fixed(results[b].hit_rate.mean(), 4)
                << ")\n";
    }
  }
  return 0;
}

int cmd_stackdist(const util::Args& args) {
  if (args.positional().empty()) {
    throw std::invalid_argument("stackdist: need a trace file");
  }
  const trace::Trace t =
      load_trace(args.positional()[0], args.get_bool("squid", false));
  const workload::StackDistanceProfile profile =
      workload::compute_stack_distances(t);

  util::Table summary("Mattson reuse-distance profile");
  summary.set_header({"Quantity", "Value"});
  summary.add_row({"References", util::fmt_count(profile.total_references)});
  summary.add_row(
      {"Cold (compulsory) misses", util::fmt_count(profile.cold_misses)});
  summary.add_row(
      {"Cold-miss floor",
       util::fmt_percent(static_cast<double>(profile.cold_misses) /
                             std::max<std::uint64_t>(
                                 1, profile.total_references),
                         1) +
           "%"});
  summary.print(std::cout);

  util::Table curve("Unit-size LRU hit rate by cache size (documents)");
  curve.set_header({"Documents held", "Hit rate"});
  for (std::uint64_t slots = 64; slots <= (1u << 22); slots *= 4) {
    curve.add_row({util::fmt_count(slots),
                   util::fmt_fixed(profile.hit_rate_at(slots), 4)});
  }
  curve.add_row(
      {"infinite", util::fmt_fixed(profile.hit_rate_at(~0ULL), 4)});
  curve.print(std::cout);
  return 0;
}

int run_command(const std::string& command, const util::Args& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "export") return cmd_export(args);
  if (command == "characterize") return cmd_characterize(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "hierarchy") return cmd_hierarchy(args);
  if (command == "replicate") return cmd_replicate(args);
  if (command == "stackdist") return cmd_stackdist(args);
  if (command == "help" || command == "--help") return usage(std::cout), 0;
  std::cerr << "webcache: unknown command '" << command << "'\n";
  return usage(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string command = argv[1];
  const util::Args args(argc - 1, argv + 1);
  try {
    const int status = run_command(command, args);
    // A report redirected to a full disk must not read as success.
    if (status == 0 && !std::cout.flush()) {
      throw std::runtime_error("cannot write stdout");
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "webcache " << command << ": " << e.what() << "\n";
    return 1;
  }
}
