// Extension benchmark: class-partitioned caches vs the unified schemes.
//
// The paper's conclusion calls for understanding document types "for the
// effective design of web cache replacement schemes under changing workload
// characteristics". The simplest type-aware design is a static partition:
// give each document class its own slice of the cache. This bench compares
//   * the paper's unified GD*(1) / LRU,
//   * partitions sized by the request mix (hit-rate oriented),
//   * partitions sized by the byte mix (byte-hit oriented),
// reporting the per-class trade the partitioning buys (notably: a protected
// multi-media budget recovers byte hit rate that unified GD*(1) sacrifices).
//
// A binary rather than a script line because the partitioned variants need
// a cache::PartitionedCache frontend, which no `webcache` command builds.
#include <iostream>

#include "cache/partitioned.hpp"
#include "common.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace webcache;
  const auto ctx = bench::BenchContext::from_args(argc, argv);
  const util::Args args(argc, argv);
  const double cache_fraction = args.get_double("cache-fraction", 0.08);

  std::cout << "=== Extension: class-partitioned caches (DFN, scale="
            << ctx.scale << ", cache " << cache_fraction * 100
            << "% of trace) ===\n\n";

  const trace::DenseTrace t = ctx.make_trace(synth::WorkloadProfile::DFN());
  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(t.overall_size_bytes()) * cache_fraction);
  // Each class's share of the requests and of the requested bytes.
  std::array<std::uint64_t, trace::kDocumentClassCount> requests{};
  std::array<std::uint64_t, trace::kDocumentClassCount> bytes{};
  std::uint64_t total_bytes = 0;
  for (const trace::ReplayRecord& r : t.records) {
    requests[static_cast<std::size_t>(r.doc_class)] += 1;
    bytes[static_cast<std::size_t>(r.doc_class)] += r.transfer_size;
    total_bytes += r.transfer_size;
  }
  const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  std::array<double, trace::kDocumentClassCount> request_mix{};
  std::array<double, trace::kDocumentClassCount> byte_mix{};
  for (std::size_t c = 0; c < trace::kDocumentClassCount; ++c) {
    request_mix[c] = ratio(requests[c], t.total_requests());
    byte_mix[c] = ratio(bytes[c], total_bytes);
  }

  struct Variant {
    std::string label;
    sim::SimResult result;
  };
  std::vector<Variant> variants;

  for (const char* name : {"GD*(1)", "LRU"}) {
    variants.push_back(
        {std::string("Unified ") + name,
         sim::simulate(t, capacity, cache::policy_spec_from_name(name),
                       ctx.simulator_options())});
  }
  {
    cache::PartitionedCache request_part(
        cache::PartitionedCacheConfig::uniform_policy(
            capacity, cache::policy_spec_from_name("GD*(1)"), request_mix));
    variants.push_back({"Partitioned GD*(1), request-mix shares",
                        sim::simulate(t, request_part, ctx.simulator_options())});
  }
  {
    cache::PartitionedCache byte_part(
        cache::PartitionedCacheConfig::uniform_policy(
            capacity, cache::policy_spec_from_name("GD*(1)"), byte_mix));
    variants.push_back({"Partitioned GD*(1), byte-mix shares",
                        sim::simulate(t, byte_part, ctx.simulator_options())});
  }

  util::Table table("Unified vs partitioned at " +
                    util::fmt_bytes(static_cast<double>(capacity)));
  table.set_header({"Configuration", "HR", "BHR", "MM HR", "MM BHR",
                    "Images HR"});
  for (const Variant& v : variants) {
    const auto& mm = v.result.of(trace::DocumentClass::kMultiMedia);
    const auto& img = v.result.of(trace::DocumentClass::kImage);
    table.add_row({v.label, util::fmt_fixed(v.result.overall.hit_rate(), 4),
                   util::fmt_fixed(v.result.overall.byte_hit_rate(), 4),
                   util::fmt_fixed(mm.hit_rate(), 4),
                   util::fmt_fixed(mm.byte_hit_rate(), 4),
                   util::fmt_fixed(img.hit_rate(), 4)});
  }
  ctx.emit(table, "ext_partitioned");

  std::cout
      << "Reading: request-mix shares track unified GD*(1) (images/HTML\n"
         "dominate both); byte-mix shares guarantee multi media and\n"
         "application partitions, trading a little overall hit rate for\n"
         "their byte hit rate — the dial the paper's per-type analysis\n"
         "exposes.\n";
  return 0;
}
