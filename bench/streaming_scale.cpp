// Bounded-memory acceptance harness for the streaming + sampled-sweep
// stack: generates a workload through TraceGenerator::stream() — no
// materialized Trace anywhere — and feeds it straight into the
// SHARDS-sampled LRU sweep, then reports wall clock, throughput, the
// process peak RSS, and the estimated footprint a materialized run of the
// same workload would have needed (trace vector + the exact one-pass
// engine's ~40 bytes/request). The headline number is the memory ratio:
// at the 10^8-request acceptance scale the streamed run must hold a
// >= 50x advantage over the materialized estimate.
//
// The default size is CI-safe (2M requests, a couple of seconds). The
// acceptance-scale run is
//
//   streaming_scale --requests=100000000 --docs=1000000 --rate=0.01
//
// `--docs` caps the distinct-document population: the generator's state is
// inherently O(documents) (per-document reference budgets are the workload
// model), so the request count and the population size scale separately.
//
// Flags:
//   --requests=<n>   total requests to stream (default 2000000)
//   --docs=<n>       distinct documents (default requests/50)
//   --rate=<f>       SHARDS sampling rate (default 0.01)
//   --chunk=<n>      stream chunk size in records (default 65536)
//   --seed=<n>       generator seed (default 42)
//   --json=<path>    machine-readable report (default
//                    BENCH_streaming_scale.json)
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/sampled_sweep.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "trace/request.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace webcache;

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

// Rough peak-memory estimate for running the *exact* StackSweep over a
// trace of this many requests: Fenwick trees over one recency slot per
// request plus per-document bookkeeping; ~40 bytes per request is the
// honest order of magnitude (measured: 8-fraction DFN ladder).
std::uint64_t estimated_exact_footprint_bytes(std::uint64_t total_requests) {
  return 40 * total_requests;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::uint64_t requests = args.get_uint("requests", 2000000);
  const std::uint64_t docs =
      args.get_uint("docs", std::max<std::uint64_t>(1000, requests / 50));
  const double rate = args.get_double("rate", 0.01);
  const std::size_t chunk =
      static_cast<std::size_t>(args.get_uint("chunk", 1 << 16));
  const std::uint64_t seed = args.get_uint("seed", 42);
  const std::string json_path =
      args.get("json", "BENCH_streaming_scale.json");

  // DFN class mix at an explicitly decoupled size: the request volume and
  // the document population are independent knobs here.
  synth::WorkloadProfile profile = synth::WorkloadProfile::DFN();
  profile.total_requests = requests;
  profile.distinct_documents = docs;
  profile.validate();

  // Capacity ladder from the profile's expected byte volume (there is no
  // materialized trace to measure): requested bytes ~= sum over classes of
  // request share * mean size.
  double est_bytes = 0.0;
  for (const auto cls : trace::kAllDocumentClasses) {
    const synth::ClassProfile& c = profile.of(cls);
    est_bytes += c.request_fraction * static_cast<double>(requests) *
                 c.size_mean_bytes;
  }
  sim::SampledSweepConfig config;
  for (const std::uint64_t div : {200, 50, 12, 3}) {
    config.capacities.push_back(
        static_cast<std::uint64_t>(est_bytes / static_cast<double>(div)));
  }
  config.sample_rate = rate;

  synth::GeneratorOptions options;
  options.seed = seed;
  const synth::TraceGenerator generator(profile, options);

  std::cout << "=== Streaming scale: " << util::fmt_count(requests)
            << " requests over " << util::fmt_count(docs)
            << " documents, SHARDS rate " << rate << " ===\n\n";

  const auto start = std::chrono::steady_clock::now();
  const auto stream = generator.stream(chunk);
  const sim::SampledCurve curve = sim::SampledSweep(config).run(*stream);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const long rss_kb = peak_rss_kb();
  const double streamed_bytes = static_cast<double>(rss_kb) * 1024.0;
  // What the same sweep costs materialized: the Trace vector itself plus
  // the exact one-pass engine's per-request slot bookkeeping.
  const double trace_bytes =
      static_cast<double>(requests) * sizeof(trace::Request);
  const double exact_engine_bytes =
      static_cast<double>(estimated_exact_footprint_bytes(requests));
  const double materialized_bytes = trace_bytes + exact_engine_bytes;
  const double ratio = materialized_bytes / streamed_bytes;

  util::Table table("sampled miss-ratio curve (streamed, rate " +
                    util::fmt_fixed(rate, 3) + ")");
  table.set_header({"capacity", "hit rate", "+/-", "byte hit rate", "+/-"});
  for (const sim::SampledPoint& p : curve.points) {
    table.add_row({util::fmt_bytes(p.capacity_bytes),
                   util::fmt_fixed(p.hit_rate, 4),
                   util::fmt_fixed(p.hit_rate_error, 4),
                   util::fmt_fixed(p.byte_hit_rate, 4),
                   util::fmt_fixed(p.byte_hit_rate_error, 4)});
  }
  table.print(std::cout);
  std::cout << "\n"
            << "streamed " << util::fmt_count(curve.total_requests)
            << " requests in " << util::fmt_fixed(seconds, 2) << " s ("
            << util::fmt_count(static_cast<std::uint64_t>(
                   static_cast<double>(curve.total_requests) / seconds))
            << " req/s)\n"
            << "sampled " << util::fmt_count(curve.sampled_requests)
            << " requests / " << util::fmt_count(curve.sampled_documents)
            << " tracked documents (effective rate "
            << curve.effective_rate << ")\n"
            << "peak RSS: " << rss_kb << " KB\n"
            << "materialized estimate: "
            << util::fmt_bytes(static_cast<std::uint64_t>(materialized_bytes))
            << " (trace "
            << util::fmt_bytes(static_cast<std::uint64_t>(trace_bytes))
            << " + exact engine "
            << util::fmt_bytes(
                   static_cast<std::uint64_t>(exact_engine_bytes))
            << ")\n"
            << "memory advantage: " << util::fmt_fixed(ratio, 1) << "x\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"requests\": " << requests << ",\n"
       << "  \"documents\": " << docs << ",\n"
       << "  \"sample_rate\": " << rate << ",\n"
       << "  \"effective_rate\": " << curve.effective_rate << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"chunk_records\": " << chunk << ",\n"
       << "  \"seconds\": " << seconds << ",\n"
       << "  \"requests_per_sec\": "
       << static_cast<double>(curve.total_requests) / seconds << ",\n"
       << "  \"sampled_requests\": " << curve.sampled_requests << ",\n"
       << "  \"sampled_documents\": " << curve.sampled_documents << ",\n"
       << "  \"peak_rss_kb\": " << rss_kb << ",\n"
       << "  \"materialized_estimate_bytes\": " << materialized_bytes
       << ",\n"
       << "  \"memory_advantage\": " << ratio << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < curve.points.size(); ++i) {
    const sim::SampledPoint& p = curve.points[i];
    json << "    {\"capacity_bytes\": " << p.capacity_bytes << ", "
         << "\"hit_rate\": " << p.hit_rate << ", "
         << "\"hit_rate_error\": " << p.hit_rate_error << ", "
         << "\"byte_hit_rate\": " << p.byte_hit_rate << ", "
         << "\"byte_hit_rate_error\": " << p.byte_hit_rate_error << "}"
         << (i + 1 < curve.points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
