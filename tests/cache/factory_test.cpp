#include "cache/factory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

namespace webcache::cache {
namespace {

TEST(Factory, MakesEveryKind) {
  for (const PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kSize,
        PolicyKind::kLfu, PolicyKind::kLfuDa, PolicyKind::kGds,
        PolicyKind::kGdsf, PolicyKind::kGdStar}) {
    PolicySpec spec;
    spec.kind = kind;
    const auto policy = make_policy(spec);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
  }
}

TEST(Factory, PaperNamesRoundTrip) {
  for (const char* name : {"LRU", "LFU-DA", "GDS(1)", "GDS(packet)", "GD*(1)",
                           "GD*(packet)", "FIFO", "SIZE", "LFU", "GDSF(1)",
                           "GDSF(packet)"}) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name) << name;
  }
}

TEST(Factory, SpecFromNameSetsCostModel) {
  EXPECT_EQ(policy_spec_from_name("GDS(1)").cost_model,
            CostModelKind::kConstant);
  EXPECT_EQ(policy_spec_from_name("GDS(packet)").cost_model,
            CostModelKind::kPacket);
  EXPECT_EQ(policy_spec_from_name("GD*(packet)").kind, PolicyKind::kGdStar);
  EXPECT_EQ(policy_spec_from_name("GDSF(1)").kind, PolicyKind::kGdsf);
}

TEST(Factory, UnknownNamesRejected) {
  EXPECT_THROW(policy_spec_from_name(""), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("lru"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("GDS"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("GDS(rtt)"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("GD*"), std::invalid_argument);
  EXPECT_THROW(policy_spec_from_name("LRU-THOLD(12abc)"),
               std::invalid_argument);
}

TEST(Factory, PaperPolicySetOrderAndModels) {
  const auto constant = paper_policy_set(CostModelKind::kConstant);
  ASSERT_EQ(constant.size(), 4u);
  EXPECT_EQ(constant[0].kind, PolicyKind::kLru);
  EXPECT_EQ(constant[1].kind, PolicyKind::kLfuDa);
  EXPECT_EQ(constant[2].kind, PolicyKind::kGds);
  EXPECT_EQ(constant[3].kind, PolicyKind::kGdStar);
  EXPECT_EQ(make_policy(constant[2])->name(), "GDS(1)");

  const auto packet = paper_policy_set(CostModelKind::kPacket);
  EXPECT_EQ(make_policy(packet[2])->name(), "GDS(packet)");
  EXPECT_EQ(make_policy(packet[3])->name(), "GD*(packet)");
  // LRU / LFU-DA ignore the cost model; their names are unchanged.
  EXPECT_EQ(make_policy(packet[0])->name(), "LRU");
  EXPECT_EQ(make_policy(packet[1])->name(), "LFU-DA");
}

TEST(Factory, LazyFamilyNamesRoundTrip) {
  // The canonical display names are exactly what the parser accepts.
  for (const char* name :
       {"CLOCK", "DELAY-CLOCK:k=8", "PROB-LRU:p=0.1", "DELAY-LRU:k=4",
        "BATCH-LRU:batch=32", "RANDOM"}) {
    const auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), name) << name;
  }
}

TEST(Factory, LazyFamilyBaseNamesAreCaseInsensitive) {
  EXPECT_EQ(make_policy("random")->name(), "RANDOM");
  EXPECT_EQ(make_policy("Clock")->name(), "CLOCK");
  EXPECT_EQ(make_policy("delay-clock:k=8")->name(), "DELAY-CLOCK:k=8");
  EXPECT_EQ(make_policy("prob-lru:p=0.1")->name(), "PROB-LRU:p=0.1");
  EXPECT_EQ(make_policy("DELAY-lru:K=4")->name(), "DELAY-LRU:k=4");
  EXPECT_EQ(make_policy("batch-lru:BATCH=32")->name(), "BATCH-LRU:batch=32");
  // ...but the classic paper names stay exact-match (pinned above:
  // "lru" is rejected), so the relaxation is scoped to the new family.
}

TEST(Factory, LazyFamilySpecFields) {
  EXPECT_EQ(policy_spec_from_name("RANDOM").kind, PolicyKind::kRandom);
  EXPECT_EQ(policy_spec_from_name("RANDOM:seed=9").random_seed, 9u);
  EXPECT_EQ(policy_spec_from_name("CLOCK").kind, PolicyKind::kClock);
  EXPECT_EQ(policy_spec_from_name("DELAY-CLOCK:k=5").clock_counter_max, 5u);
  EXPECT_DOUBLE_EQ(policy_spec_from_name("PROB-LRU:p=0.125").promote_probability,
                   0.125);
  EXPECT_EQ(policy_spec_from_name("PROB-LRU:p=0.5,seed=3").random_seed, 3u);
  EXPECT_EQ(policy_spec_from_name("DELAY-LRU:k=7").promote_interval, 7u);
  EXPECT_EQ(policy_spec_from_name("BATCH-LRU:batch=128").promotion_batch, 128u);
  EXPECT_EQ(policy_spec_from_name("GD*(1):beta=0.5").fixed_beta, 0.5);
  const PolicySpec packet = policy_spec_from_name("GD*(packet):beta=2");
  EXPECT_EQ(packet.kind, PolicyKind::kGdStar);
  EXPECT_EQ(packet.cost_model, CostModelKind::kPacket);
  EXPECT_EQ(packet.fixed_beta, 2.0);
  EXPECT_FALSE(policy_spec_from_name("GD*(1)").fixed_beta.has_value());
  EXPECT_EQ(policy_spec_from_name("OPT").kind, PolicyKind::kOpt);
}

// A bogus parameter string must be diagnosed with the policy and the
// offending field named, not swallowed into a generic "unknown policy".
void expect_error_mentions(const char* name, const char* fragment) {
  try {
    policy_spec_from_name(name);
    FAIL() << name << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << name << " error: " << e.what();
  }
}

TEST(Factory, LazyFamilyBadParametersDiagnosed) {
  expect_error_mentions("PROB-LRU:p=1.5", "'p'");
  expect_error_mentions("PROB-LRU:p=1.5", "1.5");
  expect_error_mentions("PROB-LRU:p=banana", "'p'");
  expect_error_mentions("PROB-LRU:probability=0.5", "probability");
  expect_error_mentions("DELAY-CLOCK:k=0", "'k'");
  expect_error_mentions("DELAY-LRU:k=-3", "'k'");
  expect_error_mentions("BATCH-LRU:batch=zero", "'batch'");
  expect_error_mentions("BATCH-LRU:batch=", "batch=");
  expect_error_mentions("RANDOM:seed=abc", "'seed'");
  expect_error_mentions("RANDOM:k=2", "'k'");
  expect_error_mentions("CLOCK:k=2", "'k'");  // CLOCK takes no parameters
  expect_error_mentions("DELAY-CLOCK:=3", "=3");
  // GD*'s fixed beta: each error names the policy and the parameter.
  for (const auto& [name, policy, parameter] :
       {std::tuple{"GD*(1):beta=0", "GD*(1)", "'beta'"},
        std::tuple{"GD*(1):beta=-1", "GD*(1)", "'beta'"},
        std::tuple{"GD*(1):beta=abc", "GD*(1)", "'beta'"},
        std::tuple{"GD*(packet):beta=", "GD*(packet)", "beta="},
        std::tuple{"GD*(1):gamma=1", "GD*(1)", "'gamma'"},
        std::tuple{"GDS(1):beta=1", "GDS(1)", "'beta'"}}) {
    expect_error_mentions(name, policy);
    expect_error_mentions(name, parameter);
  }
}

TEST(Factory, OptIsSweepOnly) {
  // OPT's oracle is the trace's future, which make_policy does not have.
  try {
    make_policy("OPT");
    FAIL() << "make_policy built OPT";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("OPT"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sweep"), std::string::npos);
  }
}

TEST(Factory, FixedBetaSpecHonored) {
  PolicySpec spec;
  spec.kind = PolicyKind::kGdStar;
  spec.fixed_beta = 0.5;
  const auto policy = make_policy(spec);
  EXPECT_NE(policy->name().find("beta"), std::string_view::npos);
}

}  // namespace
}  // namespace webcache::cache
