#include "cache/greedy_dual.hpp"

#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/factory.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"

namespace webcache::cache {
namespace {

using trace::DocumentClass;

TEST(GdStarClass, Names) {
  EXPECT_EQ(GdStarPerClassPolicy(CostModelKind::kConstant).name(), "GD*C(1)");
  EXPECT_EQ(GdStarPerClassPolicy(CostModelKind::kPacket).name(),
            "GD*C(packet)");
}

TEST(GdStarClass, FactoryRoundTrip) {
  EXPECT_EQ(make_policy("GD*C(1)")->name(), "GD*C(1)");
  EXPECT_EQ(make_policy("GD*C(packet)")->name(), "GD*C(packet)");
  EXPECT_EQ(policy_spec_from_name("GD*C(packet)").kind,
            PolicyKind::kGdStarPerClass);
}

TEST(GdStarClass, StartsAtInitialBetaPerClass) {
  GdStarPerClassPolicy policy(CostModelKind::kConstant);
  for (const auto cls : trace::kAllDocumentClasses) {
    EXPECT_DOUBLE_EQ(policy.beta(cls), 1.0);
  }
}

TEST(GdStarClass, EstimatorsAreIndependent) {
  // Feed strongly correlated image hits and uncorrelated HTML hits through
  // a large cache; only the image estimator should move.
  auto policy = std::make_unique<GdStarPerClassPolicy>(
      CostModelKind::kConstant);
  GdStarPerClassPolicy* raw = policy.get();
  Cache cache(1 << 24, std::move(policy));

  util::Rng rng(13);
  std::vector<ObjectId> history;
  for (int i = 0; i < 40000; ++i) {
    // Images: 70% re-reference with small power-law-ish gaps.
    ObjectId img;
    if (!history.empty() && rng.chance(0.7)) {
      const auto gap = 1 + rng.below(std::min<std::uint64_t>(
                               4, history.size()));
      img = history[history.size() - gap];
    } else {
      img = 1'000'000 + rng.below(500000);
    }
    history.push_back(img);
    cache.access(img, 10, DocumentClass::kImage);
    // HTML: uniform over a small population (geometric gaps).
    cache.access(2'000'000 + rng.below(300), 10, DocumentClass::kHtml);
  }
  EXPECT_NE(raw->beta(DocumentClass::kImage), 1.0);
  // The multimedia estimator saw no gaps at all: untouched.
  EXPECT_DOUBLE_EQ(raw->beta(DocumentClass::kMultiMedia), 1.0);
  EXPECT_NE(raw->beta(DocumentClass::kImage),
            raw->beta(DocumentClass::kHtml));
}

TEST(GdStarClass, ImprovesNonImageByteHitRateOnRtp) {
  // The paper's Section 4.4 diagnosis, as a regression: per-class beta must
  // recover application byte hit rate relative to single-beta GD* on the
  // RTP-like workload under packet cost.
  synth::GeneratorOptions gen;
  gen.seed = 42;
  const trace::Trace t =
      synth::TraceGenerator(synth::WorkloadProfile::RTP().scaled(0.01), gen)
          .generate();
  const std::uint64_t capacity = t.overall_size_bytes() / 25;

  const sim::SimResult single = sim::simulate(
      t, capacity, policy_spec_from_name("GD*(packet)"), {});
  const sim::SimResult per_class = sim::simulate(
      t, capacity, policy_spec_from_name("GD*C(packet)"), {});
  EXPECT_GT(per_class.of(DocumentClass::kApplication).byte_hit_rate(),
            single.of(DocumentClass::kApplication).byte_hit_rate());
}

}  // namespace
}  // namespace webcache::cache
