// Tests for src/runtime: objectives, the EVALUATE engine, global
// multi-app evaluation, and the online policy selector.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/benchmarks.hpp"
#include "common/error.hpp"
#include "policy/governors.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/objectives.hpp"
#include "runtime/selector.hpp"

namespace parmis::runtime {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  soc::SocSpec spec_ = soc::SocSpec::exynos5422();
  soc::Platform platform_{spec_};
  soc::Application app_ = apps::make_benchmark("qsort");
};

// ------------------------------------------------------------- objectives

TEST(Objectives, DirectionsAndNames) {
  EXPECT_FALSE(Objective(ObjectiveKind::ExecutionTime).maximize());
  EXPECT_FALSE(Objective(ObjectiveKind::Energy).maximize());
  EXPECT_TRUE(Objective(ObjectiveKind::PPW).maximize());
  EXPECT_FALSE(Objective(ObjectiveKind::EDP).maximize());
  EXPECT_EQ(Objective(ObjectiveKind::ExecutionTime).name(), "time_s");
}

TEST(Objectives, MinValueNegatesMaximizedObjectives) {
  RunMetrics m;
  m.time_s = 2.0;
  m.energy_j = 5.0;
  m.ppw_mean = 0.8;
  m.edp = 10.0;
  m.peak_power_w = 4.0;
  const Objective time(ObjectiveKind::ExecutionTime);
  const Objective ppw(ObjectiveKind::PPW);
  EXPECT_DOUBLE_EQ(time.min_value(m), 2.0);
  EXPECT_DOUBLE_EQ(ppw.min_value(m), -0.8);
  EXPECT_DOUBLE_EQ(ppw.to_raw(ppw.min_value(m)), 0.8);
  EXPECT_DOUBLE_EQ(time.to_raw(time.min_value(m)), 2.0);
}

TEST(Objectives, StandardPairsAndVector) {
  const auto te = time_energy_objectives();
  ASSERT_EQ(te.size(), 2u);
  EXPECT_EQ(te[0].kind(), ObjectiveKind::ExecutionTime);
  EXPECT_EQ(te[1].kind(), ObjectiveKind::Energy);
  const auto tp = time_ppw_objectives();
  EXPECT_EQ(tp[1].kind(), ObjectiveKind::PPW);

  RunMetrics m;
  m.time_s = 1.5;
  m.energy_j = 3.0;
  EXPECT_EQ(objective_vector(te, m), (num::Vec{1.5, 3.0}));
  EXPECT_THROW(objective_vector({}, m), Error);
}

// -------------------------------------------------------------- evaluator

TEST_F(RuntimeTest, DeterministicRunsWithoutNoise) {
  policy::PerformanceGovernor gov(platform_.decision_space());
  Evaluator eval(platform_);
  const RunMetrics a = eval.run(gov, app_);
  const RunMetrics b = eval.run(gov, app_);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.epochs, app_.num_epochs());
}

TEST_F(RuntimeTest, MetricsInternallyConsistent) {
  policy::OndemandGovernor gov(platform_.decision_space());
  Evaluator eval(platform_);
  const RunMetrics m = eval.run(gov, app_);
  EXPECT_NEAR(m.avg_power_w, m.energy_j / m.time_s, 1e-9);
  EXPECT_NEAR(m.edp, m.energy_j * m.time_s, 1e-9);
  EXPECT_GE(m.peak_power_w, m.avg_power_w);
  EXPECT_GT(m.ppw_mean, 0.0);
}

TEST_F(RuntimeTest, PpwIsNotJustInverseEnergy) {
  // Mean per-epoch IPS/W would equal instructions/energy only if every
  // epoch had identical (gips, power); phase structure breaks that.
  policy::PerformanceGovernor gov(platform_.decision_space());
  Evaluator eval(platform_);
  const RunMetrics m = eval.run(gov, app_);
  const double whole_run_ppw = app_.total_instructions_g() / m.energy_j;
  EXPECT_GT(std::abs(m.ppw_mean - whole_run_ppw) / whole_run_ppw, 0.005);
}

TEST_F(RuntimeTest, PoliciesActuallyChangeOutcomes) {
  Evaluator eval(platform_);
  policy::PerformanceGovernor fast(platform_.decision_space());
  policy::PowersaveGovernor slow(platform_.decision_space());
  const RunMetrics mf = eval.run(fast, app_);
  const RunMetrics ms = eval.run(slow, app_);
  EXPECT_LT(mf.time_s, 0.5 * ms.time_s);
  EXPECT_GT(mf.avg_power_w, ms.avg_power_w);
}

TEST_F(RuntimeTest, DecisionOverheadMeasured) {
  EvaluatorConfig cfg;
  cfg.measure_decision_overhead = true;
  Evaluator eval(platform_, cfg);
  policy::MlpPolicy mlp(platform_.decision_space());
  Rng rng(1);
  mlp.init_xavier(rng);
  const RunMetrics m = eval.run(mlp, app_);
  EXPECT_GT(m.decision_overhead_us, 0.0);
  EXPECT_LT(m.decision_overhead_us, 5000.0);  // << the 100 ms epoch
}

TEST_F(RuntimeTest, ThermalThrottlingSlowsHotRuns) {
  // An aggressive thermal configuration must throttle the performance
  // governor and increase execution time vs the unthrottled run.
  EvaluatorConfig hot;
  hot.enable_thermal = true;
  hot.thermal_params.trip_point_c = 35.0;    // trips within the first epochs
  hot.thermal_params.release_point_c = 30.0;
  hot.thermal_params.capacitance_j_per_c = 0.2;  // heats quickly
  Evaluator throttled(platform_, hot);
  Evaluator free(platform_);
  policy::PerformanceGovernor gov(platform_.decision_space());
  const double t_free = free.run(gov, app_).time_s;
  const double t_hot = throttled.run(gov, app_).time_s;
  EXPECT_GT(t_hot, t_free * 1.05);
}

TEST_F(RuntimeTest, EvaluateReturnsMinimizationVector) {
  Evaluator eval(platform_);
  policy::PerformanceGovernor gov(platform_.decision_space());
  const num::Vec v = eval.evaluate(gov, app_, time_ppw_objectives());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_GT(v[0], 0.0);   // time
  EXPECT_LT(v[1], 0.0);   // negated PPW
}

// ------------------------------------------------------- global evaluator

TEST_F(RuntimeTest, GlobalEvaluatorNormalizesAgainstReference) {
  std::vector<soc::Application> apps = {apps::make_benchmark("qsort"),
                                        apps::make_benchmark("dijkstra")};
  GlobalEvaluator global(platform_, apps, time_energy_objectives());
  // The reference policy itself scores exactly (1, 1) by construction.
  policy::StaticPolicy ref(platform_.decision_space().default_decision());
  const num::Vec v = global.evaluate(ref);
  EXPECT_NEAR(v[0], 1.0, 0.02);  // DVFS transitions cause tiny deviations
  EXPECT_NEAR(v[1], 1.0, 0.02);
  EXPECT_EQ(global.last_per_app_metrics().size(), 2u);
}

TEST_F(RuntimeTest, GlobalEvaluatorOrdersPolicies) {
  std::vector<soc::Application> apps = {apps::make_benchmark("qsort"),
                                        apps::make_benchmark("fft")};
  GlobalEvaluator global(platform_, apps, time_energy_objectives());
  policy::PerformanceGovernor fast(platform_.decision_space());
  policy::PowersaveGovernor slow(platform_.decision_space());
  const num::Vec vf = global.evaluate(fast);
  const num::Vec vs = global.evaluate(slow);
  EXPECT_LT(vf[0], vs[0]);  // normalized time ordering preserved
}

TEST_F(RuntimeTest, GlobalEvaluatorValidatesInputs) {
  EXPECT_THROW(GlobalEvaluator(platform_, {}, time_energy_objectives()),
               Error);
  EXPECT_THROW(
      GlobalEvaluator(platform_, {apps::make_benchmark("qsort")}, {}),
      Error);
}

// ---------------------------------------------------------------- selector

TEST(Selector, ExtremeWeightsPickExtremePoints) {
  const std::vector<num::Vec> front = {{1.0, 9.0}, {5.0, 5.0}, {9.0, 1.0}};
  PolicySelector sel(front);
  EXPECT_EQ(sel.select({1.0, 0.0}), 0u);   // all weight on objective 0
  EXPECT_EQ(sel.select({0.0, 1.0}), 2u);
  EXPECT_EQ(sel.best_for_objective(0), 0u);
  EXPECT_EQ(sel.best_for_objective(1), 2u);
}

TEST(Selector, KneePointIsBalanced) {
  const std::vector<num::Vec> front = {{0.0, 10.0}, {3.0, 3.0}, {10.0, 0.0}};
  PolicySelector sel(front);
  EXPECT_EQ(sel.knee_point(), 1u);
}

TEST(Selector, WeightsAreUnitFree) {
  // Same relative weights, different scales -> same selection.
  const std::vector<num::Vec> front = {{1.0, 900.0}, {2.0, 500.0},
                                       {4.0, 100.0}};
  PolicySelector sel(front);
  EXPECT_EQ(sel.select({1.0, 1.0}), sel.select({10.0, 10.0}));
}

TEST(Selector, Validation) {
  EXPECT_THROW(PolicySelector({}), Error);
  EXPECT_THROW(PolicySelector({{1.0, 2.0}, {1.0}}), Error);
  PolicySelector sel({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(sel.select({1.0}), Error);
  EXPECT_THROW(sel.select({0.0, 0.0}), Error);
  EXPECT_THROW(sel.select({-1.0, 2.0}), Error);
  EXPECT_THROW(sel.best_for_objective(5), Error);
}

TEST(Selector, DegenerateObjectiveHandled) {
  // One objective constant across the front: normalization must not
  // divide by zero.
  const std::vector<num::Vec> front = {{1.0, 5.0}, {2.0, 5.0}};
  PolicySelector sel(front);
  EXPECT_EQ(sel.select({1.0, 1.0}), 0u);
}

TEST(Selector, DegenerateColumnContributesZeroEverywhere) {
  // Documented convention: a zero-range column contributes exactly 0
  // to every member, so weight aimed only at it scores everyone
  // equally and the lowest index wins — while the live column still
  // decides when it gets any weight at all.
  const std::vector<num::Vec> front = {{4.0, 5.0}, {1.0, 5.0}, {2.0, 5.0}};
  PolicySelector sel(front);
  EXPECT_EQ(sel.select({0.0, 1.0}), 0u);  // degenerate-only: ties to 0
  EXPECT_EQ(sel.select({1.0, 8.0}), 1u);  // live column decides alone
  EXPECT_EQ(sel.knee_point(), 1u);        // knee ignores the flat column
}

TEST(Selector, NonFiniteColumnIsDegenerate) {
  // An infinity makes the column span non-finite (or NaN via
  // inf - inf); such a column must drop out instead of poisoning the
  // scores — with NaN in a weighted sum every comparison goes false
  // and select() silently freezes on index 0.
  const std::vector<num::Vec> inf_col = {
      {1.0, std::numeric_limits<double>::infinity()},
      {2.0, 0.0},
      {0.5, -std::numeric_limits<double>::infinity()}};
  PolicySelector sel(inf_col);
  EXPECT_EQ(sel.select({1.0, 1.0}), 2u);  // finite column decides
  EXPECT_EQ(sel.knee_point(), 2u);

  const std::vector<num::Vec> nan_col = {
      {3.0, std::numeric_limits<double>::quiet_NaN()}, {1.0, 7.0}};
  PolicySelector nan_sel(nan_col);
  EXPECT_EQ(nan_sel.select({1.0, 1.0}), 1u);
}

TEST(Selector, SingletonFront) {
  PolicySelector sel({{3.0, 4.0}});
  EXPECT_EQ(sel.select({1.0, 1.0}), 0u);
  EXPECT_EQ(sel.knee_point(), 0u);
}

}  // namespace
}  // namespace parmis::runtime
