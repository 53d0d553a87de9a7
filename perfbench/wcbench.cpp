// wcbench — the in-process half of the perfbench harness (see README.md).
//
//   wcbench gen --profile=DFN|RTP --scale=S --seed=N --out=FILE
//       Generates the workload trace with synth::TraceGenerator and writes it
//       with trace::write_binary_trace_file, exactly as `webcache generate`
//       does. Prints a JSON summary of the trace.
//
//   wcbench reference --job=JOB --trace=FILE [job flags]
//       Recomputes the cells of a CLI job through a different engine than
//       the CLI uses: one-pass stack analysis for a single LRU cell, the
//       virtual per-cell grid for a sweep, the materialized virtual replay
//       for a streamed job. Prints the cells' counters as JSON.
//
//   wcbench trace --job=JOB --profile=DFN|RTP --scale=S --seed=N --out=FILE
//                 --work-dir=DIR --spans-out=FILE [job flags]
//       The traced run on the trace `gen` already wrote to FILE: the job's
//       own call sequence, first, in a fresh process as the CLI runs it;
//       then the set-up again; then the stripped per-layer loops. Each call
//       sits inside a span. The spans are written to --spans-out at the
//       end; stdout gets the job's cells.
//
// JOB is simulate, sweep or stream. Job flags mirror the CLI's:
// --policy, --cache-fraction (simulate), --policies, --fractions, --threads
// (sweep), --policy, --cache-mb, --checkpoint-every (stream). `trace` needs
// --cache-mb for every job: the GD*(packet) probes run at that capacity.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "obs/stats_sink.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporter.hpp"
#include "sim/simulator.hpp"
#include "sim/stack_sweep.hpp"
#include "sim/streaming.hpp"
#include "sim/sweep.hpp"
#include "span.hpp"
#include "synth/generator.hpp"
#include "trace/binary_trace.hpp"
#include "trace/dense_trace.hpp"
#include "trace/streaming_trace.hpp"
#include "util/args.hpp"

namespace {

using namespace webcache;
namespace fs = std::filesystem;

constexpr std::uint64_t kMiB = 1024 * 1024;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The CLI's job, as its flags describe it.
struct Job {
  std::string kind;  // simulate | sweep | stream
  std::string policy;
  double cache_fraction = 0.04;
  std::uint64_t stream_capacity = 0;  // bytes; --cache-mb, 0 when absent
  std::vector<std::string> policies;
  std::vector<double> fractions;
  std::uint32_t threads = 1;
  std::uint64_t checkpoint_every = 0;

  static Job from_args(const util::Args& args) {
    Job job;
    job.kind = args.get("job", "");
    if (job.kind != "simulate" && job.kind != "sweep" &&
        job.kind != "stream") {
      throw std::invalid_argument("--job must be simulate, sweep or stream");
    }
    job.policy = args.get("policy", "LRU");
    job.cache_fraction = args.get_double("cache-fraction", 0.04);
    job.stream_capacity = args.get_uint("cache-mb", 0) * kMiB;
    job.policies = split_list(args.get("policies", "LRU"));
    for (const std::string& f : split_list(args.get("fractions", "0.04"))) {
      job.fractions.push_back(std::stod(f));
    }
    job.threads = static_cast<std::uint32_t>(args.get_uint("threads", 1));
    job.checkpoint_every = args.get_uint("checkpoint-every", 0);
    return job;
  }

  void require_stream_capacity() const {
    if (stream_capacity == 0) {
      throw std::invalid_argument("--cache-mb required");
    }
  }

  sim::SweepConfig sweep_config() const {
    sim::SweepConfig config;
    for (const std::string& name : policies) {
      config.policies.push_back(cache::policy_spec_from_name(name));
    }
    config.cache_fractions = fractions;
    config.threads = threads;
    return config;
  }
};

/// `webcache simulate --cache-fraction` sizes the cache this way.
std::uint64_t fraction_capacity(std::uint64_t overall, double fraction) {
  return static_cast<std::uint64_t>(static_cast<double>(overall) * fraction);
}

void write_counters(std::ostream& os, const sim::HitCounters& h) {
  os << "[" << h.requests << "," << h.hits << "," << h.requested_bytes << ","
     << h.hit_bytes << "]";
}

/// One cell's integer counters: the quantities the result digest covers.
void write_cell(std::ostream& os, const sim::SimResult& r) {
  os << "{\"policy\": \"" << r.policy_name
     << "\", \"capacity_bytes\": " << r.capacity_bytes << ", \"overall\": ";
  write_counters(os, r.overall);
  os << ", \"per_class\": [";
  for (std::size_t c = 0; c < r.per_class.size(); ++c) {
    if (c > 0) os << ",";
    write_counters(os, r.per_class[c]);
  }
  os << "], \"evictions\": " << r.evictions
     << ", \"modification_misses\": " << r.modification_misses << "}";
}

void write_cells(std::ostream& os, const std::vector<sim::SimResult>& cells) {
  os << "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    os << (i == 0 ? "\n  " : ",\n  ");
    write_cell(os, cells[i]);
  }
  os << "]";
}

std::vector<sim::SimResult> sweep_cells(const sim::SweepResult& sweep) {
  std::vector<sim::SimResult> cells;
  for (const sim::SweepPoint& point : sweep.points) {
    cells.insert(cells.end(), point.results.begin(), point.results.end());
  }
  return cells;
}

/// Resident set size of this process, from /proc/self/statm.
std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

int cmd_gen(const util::Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::invalid_argument("gen: --out required");
  const std::string profile_name = args.get("profile", "DFN");
  if (profile_name != "DFN" && profile_name != "RTP") {
    throw std::invalid_argument("gen: --profile must be DFN or RTP");
  }
  const synth::WorkloadProfile profile =
      (profile_name == "DFN" ? synth::WorkloadProfile::DFN()
                             : synth::WorkloadProfile::RTP())
          .scaled(args.get_double("scale", 0.01));
  synth::GeneratorOptions options;
  options.seed = args.get_uint("seed", 42);
  const trace::Trace t = synth::TraceGenerator(profile, options).generate();
  trace::write_binary_trace_file(out, t);
  std::cout << "{\"requests\": " << t.total_requests()
            << ", \"overall_size_bytes\": " << t.overall_size_bytes() << "}\n";
  return 0;
}

int cmd_reference(const util::Args& args) {
  const Job job = Job::from_args(args);
  const std::string path = args.get("trace", "");
  const trace::Trace t = trace::read_binary_trace_file(path);
  sim::SimulatorOptions virtual_engine;
  virtual_engine.kernel = sim::KernelMode::kOff;

  std::vector<sim::SimResult> cells;
  if (job.kind == "simulate") {
    const std::uint64_t capacity =
        fraction_capacity(t.overall_size_bytes(), job.cache_fraction);
    const cache::PolicySpec spec = cache::policy_spec_from_name(job.policy);
    if (spec.kind == cache::PolicyKind::kLru &&
        capacity >= sim::StackSweep::max_transfer_size(t)) {
      cells = sim::StackSweep({capacity}, {}).run(t);
    } else {
      cells.push_back(sim::simulate(t, capacity, spec, virtual_engine));
    }
  } else if (job.kind == "sweep") {
    sim::SweepConfig config = job.sweep_config();
    config.simulator = virtual_engine;
    config.one_pass = sim::OnePassMode::kOff;
    cells = sweep_cells(sim::run_sweep(t, config));
  } else {
    job.require_stream_capacity();
    cells.push_back(sim::simulate(t, job.stream_capacity,
                                  cache::policy_spec_from_name(job.policy),
                                  virtual_engine));
  }
  std::cout << "{";
  write_cells(std::cout, cells);
  std::cout << "}\n";
  return 0;
}

/// The traced run. Every call into a library layer sits inside a span; the
/// span names are the contract with run.py, which turns them into the
/// per-layer metrics.
class TracedRun {
 public:
  TracedRun(const util::Args& args, Job job)
      : job_(std::move(job)),
        trace_path_(args.get("out", "")),
        work_dir_(args.get("work-dir", "")),
        rec_(args.get("run-id", "traced")) {
    if (trace_path_.empty() || work_dir_.empty()) {
      throw std::invalid_argument("trace: --out and --work-dir required");
    }
    job_.require_stream_capacity();
    fs::create_directories(work_dir_);
    profile_ = args.get("profile", "DFN") == "RTP"
                   ? synth::WorkloadProfile::RTP()
                   : synth::WorkloadProfile::DFN();
    profile_ = profile_.scaled(args.get_double("scale", 0.01));
    options_.seed = args.get_uint("seed", 42);
  }

  /// The job runs first, in a process as fresh as the CLI's. Run after the
  /// set-up, on the heap the generator had freed, the same job came out
  /// about 8 % faster than the CLI job.
  void run(const std::string& spans_path) {
    const std::size_t root = rec_.open("run");
    run_job();
    setup();
    probes();
    rec_.close(root);

    std::ofstream out(spans_path);
    rec_.write_json(out);
    if (!out.good()) throw std::runtime_error("cannot write " + spans_path);

    std::cout << "{\"requests\": " << trace_.total_requests()
              << ", \"documents\": " << documents_ << ", \"checksum\": " << checksum_ << ", ";
    write_cells(std::cout, cells_);
    std::cout << "}\n";
  }

 private:
  void setup() {
    const std::size_t span = rec_.open("setup");
    rec_.time("synth.generate", [&] {
      trace_ = synth::TraceGenerator(profile_, options_).generate();
    });
    rec_.time("trace.write",
              [&] { trace::write_binary_trace_file(trace_path_, trace_); });
    rec_.close(span);
    documents_ = trace_.distinct_documents();
    overall_ = trace_.overall_size_bytes();
  }

  /// The CLI job's own call sequence, minus argument parsing and the
  /// human-readable report.
  void run_job() {
    const std::size_t span = rec_.open("job");
    if (job_.kind == "simulate") {
      trace::Trace t;
      rec_.time("trace.load",
                [&] { t = trace::read_binary_trace_file(trace_path_); });
      std::uint64_t capacity = 0;
      rec_.time("trace.overall_size", [&] {
        capacity =
            fraction_capacity(t.overall_size_bytes(), job_.cache_fraction);
      });
      rec_.time("sim.simulate", [&] {
        cells_.push_back(sim::simulate(
            t, capacity, cache::policy_spec_from_name(job_.policy), {}));
      });
    } else if (job_.kind == "sweep") {
      trace::Trace t;
      rec_.time("trace.load",
                [&] { t = trace::read_binary_trace_file(trace_path_); });
      sim::SweepResult sweep;
      rec_.time("sim.run_sweep",
                [&] { sweep = sim::run_sweep(t, job_.sweep_config()); });
      rec_.time("sim.write_sweep_json", [&] {
        std::ofstream out(work_dir_ + "/job-curve.json");
        sim::write_sweep_json(out, sweep);
      });
      cells_ = sweep_cells(sweep);
    } else {
      trace::StreamingTraceReader stream(trace_path_, 1 << 16);
      obs::RecordingSink sink(
          std::max<std::uint64_t>(1, stream.total_requests() / 100));
      sim::StreamCheckpointJob cp = checkpoint_job("job-checkpoints");
      cp.sink = &sink;
      sim::CheckpointedRun run;
      rec_.time("sim.simulate_stream_checkpointed", [&] {
        run = sim::simulate_stream_checkpointed(
            stream, job_.stream_capacity,
            cache::policy_spec_from_name(job_.policy), cp);
      });
      rec_.time("obs.write_metrics_json", [&] {
        std::ofstream out(work_dir_ + "/job-metrics.json");
        sim::write_metrics_json(out, run.result, sink.series());
      });
      cells_.push_back(run.result);
    }
    rec_.close(span);
  }

  sim::StreamCheckpointJob checkpoint_job(const std::string& dir_name) const {
    sim::StreamCheckpointJob cp;
    cp.checkpoint.dir = work_dir_ + "/" + dir_name;
    fs::remove_all(cp.checkpoint.dir);
    cp.checkpoint.every = job_.checkpoint_every;
    cp.checkpoint.keep = 3;
    cp.checkpoint.trace_source = trace_path_;
    return cp;
  }

  /// The stripped loops, each timed on its own. run.py subtracts them from
  /// one another: bare contains -> bare access -> simulate -> + recording
  /// sink -> + checkpoints.
  void probes() {
    const std::size_t span = rec_.open("probes");
    const std::uint64_t n = trace_.total_requests();

    rec_.time("trace.load", [&] {
      checksum_ += trace::read_binary_trace_file(trace_path_).total_requests();
    });
    rec_.time("trace.overall_size",
              [&] { checksum_ += trace_.overall_size_bytes(); });
    rec_.time("trace.densify",
              [&] { checksum_ += trace::densify(trace_).document_count(); });
    rec_.time("trace.stream_decode", [&] {
      trace::StreamingTraceReader stream(trace_path_, 1 << 16);
      for (auto c = stream.next_chunk(); !c.empty(); c = stream.next_chunk()) {
        for (const trace::Request& r : c) checksum_ += r.transfer_size;
      }
    });

    // Per-policy loops, each at the capacity of the workload it belongs to:
    // 4 % of the overall size (the simulate and sweep jobs' rule), and the
    // stream job's --cache-mb for GD*(packet).
    const std::uint64_t at_4_percent = fraction_capacity(overall_, 0.04);
    struct PolicyProbe {
      const char* slug;
      const char* name;
      std::uint64_t capacity;
    };
    const PolicyProbe policies[] = {
        {"lru", "LRU", at_4_percent},
        {"lfu-da", "LFU-DA", at_4_percent},
        {"gds-1", "GDS(1)", at_4_percent},
        {"gdstar-1", "GD*(1)", at_4_percent},
        {"gdstar-packet", "GD*(packet)", job_.stream_capacity}};
    for (const PolicyProbe& p : policies) {
      const std::string slug = p.slug;
      const cache::PolicySpec spec = cache::policy_spec_from_name(p.name);
      const std::uint64_t capacity = p.capacity;
      malloc_trim(0);
      const std::uint64_t rss_before = rss_bytes();
      {
        cache::Cache cache(capacity, cache::make_policy(spec));
        const std::size_t s = rec_.time("cache.access." + slug, [&] {
          for (const trace::Request& r : trace_.requests) {
            cache.access(r.document, r.transfer_size, r.doc_class);
          }
        });
        rec_.annotate(s, "evictions",
                      static_cast<double>(cache.eviction_count()));
        rec_.annotate(s, "state_bytes",
                      static_cast<double>(rss_bytes()) -
                          static_cast<double>(rss_before));
        if (slug == "lru") {
          rec_.time("cache.contains", [&] {
            for (const trace::Request& r : trace_.requests) {
              checksum_ += cache.contains(r.document) ? 1 : 0;
            }
          });
        }
      }
      rec_.time("sim.simulate." + slug, [&] {
        checksum_ += sim::simulate(trace_, capacity, spec, {}).overall.hits;
      });
    }

    // The sweep's pieces, split the way run_sweep splits them: the one-pass
    // LRU ladder (capacities that hold the largest transfer), every other
    // grid cell alone, then the whole pooled sweep.
    const sim::SweepConfig config = job_.sweep_config();
    const std::uint64_t stack_floor =
        sim::StackSweep::max_transfer_size(trace_);
    std::vector<std::uint64_t> ladder;
    std::vector<std::uint64_t> stack_ladder;
    for (const double f : config.cache_fractions) {
      ladder.push_back(fraction_capacity(overall_, f));
      if (ladder.back() >= stack_floor) stack_ladder.push_back(ladder.back());
    }
    if (!stack_ladder.empty()) {
      rec_.time("sim.stack_sweep", [&] {
        for (const sim::SimResult& r :
             sim::StackSweep(stack_ladder, config.simulator).run(trace_)) {
          checksum_ += r.overall.hits;
        }
      });
    }
    for (const std::uint64_t capacity : ladder) {
      for (const cache::PolicySpec& spec : config.policies) {
        if (spec.kind == cache::PolicyKind::kLru && capacity >= stack_floor) {
          continue;
        }
        rec_.time("sim.sweep_cell", [&] {
          checksum_ +=
              sim::simulate(trace_, capacity, spec, config.simulator)
                  .overall.hits;
        });
      }
    }
    const std::size_t pooled = rec_.time("sim.run_sweep", [&] {
      checksum_ += sim::run_sweep(trace_, config).points.size();
    });
    rec_.annotate(pooled, "threads", config.threads);

    // Streamed replay of the stream job's policy: plain, with a recording
    // sink, and checkpointed. The sink's cost is a small difference of two
    // large times, so the plain and recording runs alternate kStreamReps
    // times and run.py takes the median of each.
    constexpr int kStreamReps = 3;
    const cache::PolicySpec stream_spec =
        cache::policy_spec_from_name(job_.kind == "stream" ? job_.policy
                                                           : "GD*(packet)");
    const std::uint64_t stream_capacity = job_.stream_capacity;
    obs::RecordingSink sink(std::max<std::uint64_t>(1, n / 100));
    sim::SimResult recorded;
    for (int rep = 0; rep < kStreamReps; ++rep) {
      rec_.time("sim.simulate_stream", [&] {
        trace::StreamingTraceReader stream(trace_path_, 1 << 16);
        checksum_ +=
            sim::simulate_stream(stream, stream_capacity, stream_spec, {})
                .overall.hits;
      });
      rec_.time("sim.simulate_stream.recording", [&] {
        trace::StreamingTraceReader stream(trace_path_, 1 << 16);
        recorded = sim::simulate_stream(stream, stream_capacity, stream_spec,
                                        {}, sink);
      });
    }
    rec_.time("obs.write_metrics_json", [&] {
      std::ofstream out(work_dir_ + "/probe-metrics.json");
      sim::write_metrics_json(out, recorded, sink.series());
    });
    const sim::StreamCheckpointJob cp = checkpoint_job("probe-checkpoints");
    sim::CheckpointedRun run;
    const std::size_t s = rec_.time("sim.simulate_stream_checkpointed", [&] {
      trace::StreamingTraceReader stream(trace_path_, 1 << 16);
      run = sim::simulate_stream_checkpointed(stream, stream_capacity,
                                              stream_spec, cp);
    });
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    for (const fs::directory_entry& e :
         fs::directory_iterator(cp.checkpoint.dir)) {
      if (e.path().extension() == ".wckp") {
        ++files;
        bytes += e.file_size();
      }
    }
    rec_.annotate(s, "checkpoints",
                  static_cast<double>(run.checkpoints_written));
    rec_.annotate(s, "checkpoint_bytes",
                  files == 0 ? 0.0
                             : static_cast<double>(bytes) /
                                   static_cast<double>(files));
    checksum_ += run.result.overall.hits;
    rec_.close(span);
  }

  Job job_;
  std::string trace_path_;
  std::string work_dir_;
  perfbench::SpanRecorder rec_;
  synth::WorkloadProfile profile_;
  synth::GeneratorOptions options_;
  trace::Trace trace_;
  std::uint64_t documents_ = 0;
  std::uint64_t overall_ = 0;
  std::vector<sim::SimResult> cells_;
  std::uint64_t checksum_ = 0;  // keeps the stripped loops observable
};

int cmd_trace(const util::Args& args) {
  const std::string spans = args.get("spans-out", "");
  if (spans.empty()) {
    throw std::invalid_argument("trace: --spans-out required");
  }
  TracedRun(args, Job::from_args(args)).run(spans);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    const std::string cmd =
        args.positional().empty() ? "" : args.positional()[0];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "reference") return cmd_reference(args);
    if (cmd == "trace") return cmd_trace(args);
    std::cerr << "usage: wcbench gen|reference|trace [flags] (see source)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "wcbench: " << e.what() << "\n";
    return 1;
  }
}
