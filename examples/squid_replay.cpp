// Scenario: run the paper's study on YOUR proxy — replay a real Squid
// access.log through the preprocessing pipeline and the simulator.
//
// This is the bridge from the synthetic reproduction back to reality: with
// a Squid-format log the identical analysis (preprocessing heuristics,
// per-type breakdown, policy comparison) runs on measured traffic.
//
// Usage:
//   ./examples/squid_replay <access.log> [--cache-mb=1024] [--policy=all]
//   ./examples/squid_replay --demo          # built-in 10-line sample log
#include <fstream>
#include <iostream>
#include <sstream>

#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "trace/preprocess.hpp"
#include "util/args.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "workload/breakdown.hpp"
#include "workload/report.hpp"

namespace {

constexpr const char* kDemoLog =
    "981173030.010 212 10.0.0.1 TCP_MISS/200 6144 GET http://a/index.html - D/x text/html\n"
    "981173031.120 80 10.0.0.2 TCP_MISS/200 3210 GET http://a/logo.gif - D/x image/gif\n"
    "981173032.330 95 10.0.0.1 TCP_HIT/200 3210 GET http://a/logo.gif - D/x image/gif\n"
    "981173033.440 500 10.0.0.3 TCP_MISS/200 482133 GET http://a/talk.mp3 - D/x audio/mpeg\n"
    "981173034.550 75 10.0.0.2 TCP_MISS/200 150000 GET http://a/paper.pdf - D/x application/pdf\n"
    "981173035.660 20 10.0.0.1 TCP_MISS/404 320 GET http://a/missing - D/x text/html\n"
    "981173036.770 33 10.0.0.4 TCP_MISS/200 900 GET http://a/cgi-bin/s - D/x text/html\n"
    "981173037.880 41 10.0.0.4 TCP_MISS/200 512 POST http://a/form - D/x text/html\n"
    "981173038.990 66 10.0.0.2 TCP_HIT/200 6144 GET http://a/index.html - D/x text/html\n"
    "981173040.100 91 10.0.0.3 TCP_MISS/200 3210 GET http://a/logo.gif - D/x image/gif\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace webcache;
  const util::Args args(argc, argv);

  trace::PreprocessStats stats;
  trace::Trace t;
  if (args.get_bool("demo", false) || args.positional().empty()) {
    std::cout << "(no log given: replaying the built-in demo sample; pass a "
                 "Squid access.log path to analyze real traffic)\n\n";
    std::istringstream in(kDemoLog);
    t = trace::preprocess_squid_log(in, &stats);
  } else {
    const std::string path = args.positional().front();
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    t = trace::preprocess_squid_log(in, &stats);
  }

  std::cout << "Preprocessing: " << stats.total_entries << " entries, "
            << stats.accepted << " cacheable ("
            << stats.rejected_method << " non-GET, "
            << stats.rejected_dynamic_url << " dynamic, "
            << stats.rejected_status << " bad status)\n\n";
  if (t.requests.empty()) {
    std::cerr << "error: nothing cacheable in the log\n";
    return 1;
  }

  const workload::Breakdown bd = workload::compute_breakdown(t);
  workload::render_class_breakdown("Your", bd).print(std::cout);

  const std::uint64_t capacity_bytes =
      args.get_uint("cache-mb", 1024) * 1024 * 1024;

  util::Table table("Policy comparison at " +
                    util::fmt_bytes(static_cast<double>(capacity_bytes)));
  table.set_header({"Policy", "Hit rate", "Byte hit rate", "Evictions"});
  const trace::DenseTrace dense = trace::densify(t);
  for (const char* name :
       {"LRU", "LFU-DA", "GDS(1)", "GD*(1)", "GDS(packet)", "GD*(packet)"}) {
    sim::SimulatorOptions opts;
    // Small logs: skip warmup so the demo shows non-zero rates.
    opts.warmup_fraction = t.requests.size() < 1000 ? 0.0 : 0.10;
    const sim::SimResult r = sim::simulate(
        dense, capacity_bytes, cache::policy_spec_from_name(name), opts);
    table.add_row({r.policy_name, util::fmt_fixed(r.overall.hit_rate(), 4),
                   util::fmt_fixed(r.overall.byte_hit_rate(), 4),
                   util::fmt_count(r.evictions)});
  }
  table.print(std::cout);
  return 0;
}
