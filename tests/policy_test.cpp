// Tests for src/policy: static/random policies, the 4-head MLP policy,
// and the four stock governors.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "policy/governors.hpp"
#include "policy/mlp_policy.hpp"
#include "policy/policy.hpp"
#include "soc/perf_model.hpp"

namespace parmis::policy {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  soc::SocSpec spec_ = soc::SocSpec::exynos5422();
  soc::DecisionSpace space_{spec_};

  soc::HwCounters counters_with_load(double max_util) {
    soc::HwCounters c;
    c.instructions_retired = 1e9;
    c.cpu_cycles = 2e9;
    c.branch_misses_per_core = 1e5;
    c.l2_cache_misses = 1e6;
    c.data_memory_accesses = 3e8;
    c.noncache_external_requests = 8e5;
    c.little_utilization_sum = max_util * 4.0;
    c.big_utilization = max_util;
    c.total_power_w = 2.0;
    c.max_core_utilization = max_util;
    return c;
  }
};

// ---------------------------------------------------------- basic policy

TEST_F(PolicyTest, StaticPolicyReturnsFixedDecision) {
  const soc::DrmDecision d = space_.default_decision();
  StaticPolicy p(d, "fixed");
  EXPECT_EQ(p.decide(counters_with_load(0.5)), d);
  EXPECT_EQ(p.decide(counters_with_load(1.0)), d);
  EXPECT_EQ(p.name(), "fixed");
}

TEST_F(PolicyTest, RandomPolicyIsValidAndResetRepeats) {
  RandomPolicy p(space_, 5);
  const auto c = counters_with_load(0.5);
  std::vector<soc::DrmDecision> first;
  for (int i = 0; i < 10; ++i) {
    first.push_back(p.decide(c));
    EXPECT_TRUE(space_.is_valid(first.back()));
  }
  p.reset();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.decide(c), first[i]);
}

// ------------------------------------------------------------ mlp policy

TEST_F(PolicyTest, MlpPolicyHeadsMatchKnobs) {
  MlpPolicy p(space_);
  EXPECT_EQ(p.num_heads(), 4u);
  EXPECT_EQ(p.head(0).config().output_dim, 5u);   // a_big
  EXPECT_EQ(p.head(1).config().output_dim, 19u);  // f_big
  EXPECT_EQ(p.head(2).config().output_dim, 4u);   // a_little
  EXPECT_EQ(p.head(3).config().output_dim, 13u);  // f_little
  EXPECT_EQ(p.head(0).config().input_dim, soc::kNumCounterFeatures);
}

TEST_F(PolicyTest, ThetaRoundTripAndDecisionEquality) {
  Rng rng(1);
  MlpPolicy a(space_);
  a.init_xavier(rng);
  const num::Vec theta = a.parameters();
  EXPECT_EQ(theta.size(), a.num_parameters());

  MlpPolicy b(space_);
  b.set_parameters(theta);
  const auto c = counters_with_load(0.7);
  EXPECT_EQ(a.decide(c), b.decide(c));
  EXPECT_THROW(b.set_parameters(num::Vec(3, 0.0)), Error);
}

TEST_F(PolicyTest, ReusedScratchDecidesLikeAFreshPolicy) {
  // One policy whose decide scratch and heads are reused across thetas
  // and counters decides exactly like a freshly built one, and its
  // stochastic draws consume the same random numbers.
  Rng rng(6);
  MlpPolicy reused(space_);
  for (int trial = 0; trial < 20; ++trial) {
    num::Vec theta(reused.num_parameters());
    for (auto& v : theta) v = rng.uniform(-3.0, 3.0);
    reused.set_parameters(theta);
    MlpPolicy fresh(space_);
    fresh.set_parameters(theta);
    const auto c = counters_with_load(rng.uniform(0.0, 1.0));
    EXPECT_EQ(reused.decide(c), fresh.decide(c));
    Rng draw_a(100 + trial), draw_b(100 + trial);
    std::vector<std::size_t> actions_a, actions_b;
    EXPECT_EQ(reused.decide_stochastic(c, draw_a, &actions_a),
              MlpPolicy(fresh).decide_stochastic(c, draw_b, &actions_b));
    EXPECT_EQ(actions_a, actions_b);
    EXPECT_EQ(draw_a.next_u64(), draw_b.next_u64());
  }
}

TEST_F(PolicyTest, DecisionsAreValidForRandomParameters) {
  Rng rng(2);
  MlpPolicy p(space_);
  for (int trial = 0; trial < 50; ++trial) {
    num::Vec theta(p.num_parameters());
    for (auto& v : theta) v = rng.uniform(-3.0, 3.0);
    p.set_parameters(theta);
    const auto d = p.decide(counters_with_load(rng.uniform(0.0, 1.0)));
    EXPECT_TRUE(space_.is_valid(d));
  }
}

TEST_F(PolicyTest, ZeroParametersPickFirstActions) {
  MlpPolicy p(space_);  // zero weights -> all logits equal -> argmax = 0
  const auto d = p.decide(counters_with_load(0.5));
  EXPECT_EQ(d.active_cores[0], 0);   // a_big knob 0 -> min_active = 0
  EXPECT_EQ(d.active_cores[1], 1);   // little min_active = 1
  EXPECT_EQ(d.freq_level[0], 0);
}

TEST_F(PolicyTest, StochasticDecisionsExploreAndReportActions) {
  Rng rng(3);
  MlpPolicy p(space_);  // uniform distributions
  std::set<int> big_levels;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::size_t> actions;
    const auto d =
        p.decide_stochastic(counters_with_load(0.5), rng, &actions);
    EXPECT_TRUE(space_.is_valid(d));
    ASSERT_EQ(actions.size(), 4u);
    EXPECT_EQ(static_cast<int>(actions[1]), d.freq_level[0]);
    big_levels.insert(d.freq_level[0]);
  }
  EXPECT_GT(big_levels.size(), 10u);  // explored many of the 19 levels
}

TEST_F(PolicyTest, DifferentCountersCanChangeDecision) {
  Rng rng(4);
  MlpPolicy p(space_);
  p.init_xavier(rng);
  // Not guaranteed for every init, so search for a pair of inputs that
  // differ; with Xavier weights this should be easy.
  bool found = false;
  for (int trial = 0; trial < 20 && !found; ++trial) {
    num::Vec theta(p.num_parameters());
    for (auto& v : theta) v = rng.uniform(-2.0, 2.0);
    p.set_parameters(theta);
    found = !(p.decide(counters_with_load(0.05)) ==
              p.decide(counters_with_load(0.95)));
  }
  EXPECT_TRUE(found);
}

TEST_F(PolicyTest, SaveLoadRoundTrip) {
  Rng rng(5);
  MlpPolicy p(space_, {.hidden = {6, 5}});
  p.init_xavier(rng);
  std::stringstream buffer;
  p.save(buffer);
  EXPECT_EQ(static_cast<std::size_t>(buffer.str().size()),
            p.serialized_bytes());
  MlpPolicy q = MlpPolicy::load(buffer, space_);
  EXPECT_EQ(q.num_parameters(), p.num_parameters());
  EXPECT_EQ(q.parameters(), p.parameters());
  const auto c = counters_with_load(0.6);
  EXPECT_EQ(q.decide(c), p.decide(c));
}

TEST_F(PolicyTest, HeadLogitsShapes) {
  MlpPolicy p(space_);
  const num::Vec features = counters_with_load(0.5).to_features();
  ASSERT_EQ(p.num_heads(), 4u);
  EXPECT_EQ(p.head(0).forward(features).size(), 5u);
  EXPECT_EQ(p.head(1).forward(features).size(), 19u);
  EXPECT_THROW(p.head(4), Error);
}

TEST_F(PolicyTest, SerializedSizeIsPolicyStorageCost) {
  // Table II reports ~1 KB per policy; our double-precision default
  // lands in the same order of magnitude.
  MlpPolicy p(space_);
  EXPECT_GT(p.serialized_bytes(), 1000u);
  EXPECT_LT(p.serialized_bytes(), 16000u);
}

TEST_F(PolicyTest, ConstantDecisionThetaPinsTheDecision) {
  // A constant-decision theta must produce its decision for ANY counters.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const soc::DrmDecision target =
        space_.decision(rng.uniform_index(space_.size()));
    const num::Vec theta = MlpPolicy::constant_decision_theta(
        space_, MlpPolicyConfig{}, target);
    MlpPolicy p(space_);
    p.set_parameters(theta);
    for (double load : {0.0, 0.3, 0.7, 1.0}) {
      EXPECT_EQ(p.decide(counters_with_load(load)), target);
    }
  }
}

TEST_F(PolicyTest, ConstantDecisionThetaIsWithinSearchBox) {
  const num::Vec theta = MlpPolicy::constant_decision_theta(
      space_, MlpPolicyConfig{}, space_.max_performance_decision());
  for (double v : theta) {
    EXPECT_GE(v, -2.0);
    EXPECT_LE(v, 2.0);
  }
  // Sparse: only one bias per head is non-zero.
  std::size_t nonzero = 0;
  for (double v : theta) nonzero += (v != 0.0);
  EXPECT_EQ(nonzero, 4u);
}

// --------------------------------------------------------------- governors

TEST_F(PolicyTest, PerformanceGovernorPinsMax) {
  PerformanceGovernor g(space_);
  const auto d = g.decide(counters_with_load(0.1));
  EXPECT_EQ(d, space_.max_performance_decision());
  EXPECT_EQ(g.name(), "performance");
}

TEST_F(PolicyTest, PowersaveGovernorPinsMinFrequencyAllCores) {
  PowersaveGovernor g(space_);
  const auto d = g.decide(counters_with_load(0.9));
  EXPECT_EQ(d.freq_level, (std::vector<int>{0, 0}));
  // Governors do not hot-plug: all cores stay online.
  EXPECT_EQ(d.active_cores, (std::vector<int>{4, 4}));
}

TEST_F(PolicyTest, OndemandJumpsToMaxAboveThreshold) {
  OndemandGovernor g(space_);
  const auto d = g.decide(counters_with_load(0.97));
  EXPECT_EQ(d.freq_level[0], 18);
  EXPECT_EQ(d.freq_level[1], 12);
}

TEST_F(PolicyTest, OndemandProportionalBelowThreshold) {
  OndemandGovernor g(space_);
  const auto d = g.decide(counters_with_load(0.5));
  // f = 0.5 * 2000 = 1000 MHz -> level 8; little: 0.5 * 1400 = 700 -> 5.
  EXPECT_EQ(d.freq_level[0], 8);
  EXPECT_EQ(d.freq_level[1], 5);
}

TEST_F(PolicyTest, OndemandResetReturnsToIdle) {
  OndemandGovernor g(space_);
  (void)g.decide(counters_with_load(0.97));
  g.reset();
  const auto d = g.decide(counters_with_load(0.1));
  // After reset + low load: proportional -> 0.1*2000=200 -> level 0.
  EXPECT_EQ(d.freq_level[0], 0);
}

TEST_F(PolicyTest, InteractiveRampsThroughHispeedToMax) {
  InteractiveGovernor g(space_);
  const auto first = g.decide(counters_with_load(0.95));
  // hispeed = 0.9 * 18 = 16.
  EXPECT_EQ(first.freq_level[0], 16);
  const auto second = g.decide(counters_with_load(0.95));
  EXPECT_EQ(second.freq_level[0], 18);
}

TEST_F(PolicyTest, InteractiveDecaysSlowlyWhenIdle) {
  InteractiveGovernor g(space_);
  (void)g.decide(counters_with_load(0.95));
  (void)g.decide(counters_with_load(0.95));  // now at max
  const auto d1 = g.decide(counters_with_load(0.1));
  EXPECT_EQ(d1.freq_level[0], 17);  // one step down
  const auto d2 = g.decide(counters_with_load(0.1));
  EXPECT_EQ(d2.freq_level[0], 16);
}

TEST_F(PolicyTest, InteractiveHoldsBetweenThresholds) {
  InteractiveGovernor g(space_);
  (void)g.decide(counters_with_load(0.95));
  const auto hold = g.decide(counters_with_load(0.6));
  EXPECT_EQ(hold.freq_level[0], 16);  // neither ramp nor decay
}

TEST_F(PolicyTest, ConservativeMovesOneStepAtATime) {
  ConservativeGovernor g(space_);
  // High load: exactly one level per decision, from idle.
  auto d = g.decide(counters_with_load(0.95));
  EXPECT_EQ(d.freq_level[0], 1);
  d = g.decide(counters_with_load(0.95));
  EXPECT_EQ(d.freq_level[0], 2);
  // Mid load: hold.
  d = g.decide(counters_with_load(0.6));
  EXPECT_EQ(d.freq_level[0], 2);
  // Low load: one step down, floored at 0.
  d = g.decide(counters_with_load(0.1));
  EXPECT_EQ(d.freq_level[0], 1);
  g.reset();
  d = g.decide(counters_with_load(0.1));
  EXPECT_EQ(d.freq_level[0], 0);
  EXPECT_THROW(ConservativeGovernor(space_, 0.3, 0.8), Error);
}

TEST_F(PolicyTest, SchedutilIsProportionalWithHeadroom) {
  SchedutilGovernor g(space_);
  // f = 1.25 * 0.6 * 2000 = 1500 -> level 13; little 1.25*0.6*1400=1050 -> 9.
  const auto d = g.decide(counters_with_load(0.6));
  EXPECT_EQ(d.freq_level[0], 13);
  EXPECT_EQ(d.freq_level[1], 9);
  // Saturates at max for high load.
  const auto dmax = g.decide(counters_with_load(0.95));
  EXPECT_EQ(dmax.freq_level[0], 18);
  // All cores stay online.
  EXPECT_EQ(d.active_cores, (std::vector<int>{4, 4}));
  EXPECT_THROW(SchedutilGovernor(space_, 3.0), Error);
}

TEST_F(PolicyTest, GovernorsAlwaysProduceValidDecisions) {
  Rng rng(6);
  OndemandGovernor od(space_);
  InteractiveGovernor ia(space_);
  PerformanceGovernor pf(space_);
  PowersaveGovernor ps(space_);
  SchedutilGovernor su(space_);
  for (int i = 0; i < 300; ++i) {
    const auto c = counters_with_load(rng.uniform(0.0, 1.0));
    for (Policy* g : {static_cast<Policy*>(&od), static_cast<Policy*>(&ia),
                      static_cast<Policy*>(&pf), static_cast<Policy*>(&ps),
                      static_cast<Policy*>(&su)}) {
      EXPECT_TRUE(space_.is_valid(g->decide(c)));
    }
  }
}

TEST_F(PolicyTest, GovernorValidation) {
  EXPECT_THROW(OndemandGovernor(space_, 1.5), Error);
  EXPECT_THROW(InteractiveGovernor(space_, 0.3, 0.9, 0.4), Error);
  EXPECT_THROW(InteractiveGovernor(space_, 0.85, 1.5, 0.4), Error);
}

TEST_F(PolicyTest, GovernorsWorkOnManycoreSpec) {
  const soc::SocSpec spec = soc::SocSpec::manycore16();
  const soc::DecisionSpace space(spec);
  OndemandGovernor g(space);
  const auto d = g.decide(counters_with_load(0.97));
  EXPECT_TRUE(space.is_valid(d));
  EXPECT_EQ(d.active_cores.size(), 4u);
}

}  // namespace
}  // namespace parmis::policy
