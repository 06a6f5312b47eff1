// Unit + property tests for src/soc: DVFS tables, specs, the 4940-way
// decision space, the performance/power model, platform, and thermals.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "numerics/vec.hpp"
#include "soc/decision.hpp"
#include "soc/dvfs.hpp"
#include "soc/perf_model.hpp"
#include "soc/platform.hpp"
#include "soc/spec.hpp"
#include "soc/thermal.hpp"
#include "soc/workload.hpp"

namespace parmis::soc {
namespace {

EpochWorkload compute_bound_epoch() {
  return {.instructions_g = 1.0,
          .parallel_fraction = 0.3,
          .mem_bytes_per_instr = 0.05,
          .branch_miss_rate = 0.002,
          .ilp = 0.9,
          .big_affinity = 0.8,
          .duty = 0.98};
}

EpochWorkload memory_bound_epoch() {
  return {.instructions_g = 1.0,
          .parallel_fraction = 0.8,
          .mem_bytes_per_instr = 1.6,
          .branch_miss_rate = 0.006,
          .ilp = 0.6,
          .big_affinity = 0.4,
          .duty = 0.9};
}

// ------------------------------------------------------------------ dvfs

TEST(Dvfs, ExynosLadders) {
  const DvfsTable big(200, 2000, 100);
  EXPECT_EQ(big.levels(), 19);
  EXPECT_EQ(big.frequency_mhz(0), 200);
  EXPECT_EQ(big.frequency_mhz(18), 2000);
  EXPECT_DOUBLE_EQ(big.frequency_ghz(9), 1.1);
  const DvfsTable little(200, 1400, 100);
  EXPECT_EQ(little.levels(), 13);
}

TEST(Dvfs, LevelForMhzRoundsAndClamps) {
  const DvfsTable t(200, 2000, 100);
  EXPECT_EQ(t.level_for_mhz(200.0), 0);
  EXPECT_EQ(t.level_for_mhz(949.0), 7);   // 900 closer than 1000
  EXPECT_EQ(t.level_for_mhz(951.0), 8);
  EXPECT_EQ(t.level_for_mhz(5000.0), 18);
  EXPECT_EQ(t.level_for_mhz(-100.0), 0);
}

TEST(Dvfs, ValidatesConstruction) {
  EXPECT_THROW(DvfsTable(0, 1000, 100), Error);
  EXPECT_THROW(DvfsTable(200, 100, 100), Error);
  EXPECT_THROW(DvfsTable(200, 1000, 300), Error);  // not a multiple
  EXPECT_THROW(DvfsTable(200, 1000, 0), Error);
}

TEST(Dvfs, OppCurveInterpolatesAndClamps) {
  const OppCurve opp(0.9, 1.25, 0.2, 2.0);
  EXPECT_DOUBLE_EQ(opp.voltage(0.2), 0.9);
  EXPECT_DOUBLE_EQ(opp.voltage(2.0), 1.25);
  EXPECT_NEAR(opp.voltage(1.1), 0.9 + 0.35 * 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(opp.voltage(0.0), 0.9);   // clamped
  EXPECT_DOUBLE_EQ(opp.voltage(3.0), 1.25);  // clamped
}

// ------------------------------------------------------------------ spec

TEST(Spec, ExynosDecisionSpaceIs4940) {
  // The paper's headline number: 4 x 5 x 13 x 19 = 4940 decisions.
  const SocSpec spec = SocSpec::exynos5422();
  EXPECT_EQ(spec.decision_space_size(), 4940u);
  EXPECT_EQ(spec.clusters.size(), 2u);
  EXPECT_EQ(spec.cluster_index("big"), 0u);
  EXPECT_EQ(spec.cluster_index("little"), 1u);
  EXPECT_THROW(spec.cluster_index("gpu"), Error);
}

TEST(Spec, LittleClusterKeepsOneCoreForOs) {
  const SocSpec spec = SocSpec::exynos5422();
  EXPECT_EQ(spec.clusters[1].min_active, 1);
  EXPECT_EQ(spec.clusters[0].min_active, 0);
}

TEST(Spec, PowerModelIsPhysical) {
  const SocSpec spec = SocSpec::exynos5422();
  const ClusterSpec& big = spec.clusters[0];
  // Dynamic power grows superlinearly in f because V rises with f.
  const double p1 = big.core_dynamic_power(1.0);
  const double p2 = big.core_dynamic_power(2.0);
  EXPECT_GT(p2, 2.0 * p1);
  // Big core burns much more than little at their respective maxima.
  const ClusterSpec& little = spec.clusters[1];
  EXPECT_GT(big.core_dynamic_power(2.0),
            4.0 * little.core_dynamic_power(1.4));
  EXPECT_GT(big.core_leakage_power(2.0), big.core_leakage_power(0.2));
}

TEST(Spec, Manycore16HasFourClusters) {
  const SocSpec spec = SocSpec::manycore16();
  EXPECT_EQ(spec.clusters.size(), 4u);
  int cores = 0;
  for (const auto& c : spec.clusters) cores += c.num_cores;
  EXPECT_EQ(cores, 16);
  EXPECT_GT(spec.decision_space_size(), 4940u);
}

// -------------------------------------------------------- decision space

TEST(DecisionSpace, IndexDecisionBijectionOverAll4940) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  ASSERT_EQ(space.size(), 4940u);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const DrmDecision d = space.decision(i);
    EXPECT_TRUE(space.is_valid(d));
    EXPECT_EQ(space.index(d), i);
  }
}

TEST(DecisionSpace, KnobCardinalitiesMatchPaper) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  // (a_big, f_big, a_little, f_little) head sizes: 5, 19, 4, 13.
  EXPECT_EQ(space.knob_cardinalities(), (std::vector<int>{5, 19, 4, 13}));
}

TEST(DecisionSpace, KnobRoundTrip) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const DrmDecision d = space.decision(rng.uniform_index(space.size()));
    EXPECT_EQ(space.from_knobs(space.to_knobs(d)), d);
  }
}

TEST(DecisionSpace, FromKnobsClampsOutOfRange) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  const DrmDecision d = space.from_knobs({99, 99, 99, 99});
  EXPECT_TRUE(space.is_valid(d));
  EXPECT_EQ(d.active_cores[0], 4);
  EXPECT_EQ(d.freq_level[0], 18);
}

TEST(DecisionSpace, InvalidDecisionsRejected) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  DrmDecision d = space.default_decision();
  d.active_cores[1] = 0;  // little cluster must keep one core
  EXPECT_FALSE(space.is_valid(d));
  EXPECT_THROW(space.index(d), Error);
  d = space.default_decision();
  d.freq_level[0] = 19;
  EXPECT_FALSE(space.is_valid(d));
}

TEST(DecisionSpace, SpecialDecisions) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  const DrmDecision maxd = space.max_performance_decision();
  EXPECT_EQ(maxd.active_cores, (std::vector<int>{4, 4}));
  EXPECT_EQ(maxd.freq_level, (std::vector<int>{18, 12}));
  const DrmDecision mind = space.min_power_decision();
  EXPECT_EQ(mind.active_cores, (std::vector<int>{0, 1}));
  EXPECT_EQ(mind.freq_level, (std::vector<int>{0, 0}));
  EXPECT_TRUE(space.is_valid(space.default_decision()));
}

TEST(DecisionSpace, ManycoreBijectionSample) {
  const SocSpec spec = SocSpec::manycore16();
  const DecisionSpace space(spec);
  Rng rng(2);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t i = rng.uniform_index(space.size());
    EXPECT_EQ(space.index(space.decision(i)), i);
  }
}

TEST(DecisionSpace, ToStringMentionsClusters) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  const std::string s = space.default_decision().to_string(spec);
  EXPECT_NE(s.find("big"), std::string::npos);
  EXPECT_NE(s.find("little"), std::string::npos);
  EXPECT_NE(s.find("MHz"), std::string::npos);
}

// -------------------------------------------------------------- workload

TEST(Workload, ValidationCatchesBadFields) {
  EpochWorkload e = compute_bound_epoch();
  EXPECT_NO_THROW(e.validate());
  e.instructions_g = 0.0;
  EXPECT_THROW(e.validate(), Error);
  e = compute_bound_epoch();
  e.parallel_fraction = 1.5;
  EXPECT_THROW(e.validate(), Error);
  e = compute_bound_epoch();
  e.duty = 0.2;
  EXPECT_THROW(e.validate(), Error);
  e = compute_bound_epoch();
  e.ilp = 0.0;
  EXPECT_THROW(e.validate(), Error);
}

TEST(Workload, ApplicationAggregation) {
  Application app;
  app.name = "test";
  app.epochs = {compute_bound_epoch(), memory_bound_epoch()};
  EXPECT_DOUBLE_EQ(app.total_instructions_g(), 2.0);
  EXPECT_EQ(app.num_epochs(), 2u);
  EXPECT_NO_THROW(app.validate());
  Application empty;
  empty.name = "empty";
  EXPECT_THROW(empty.validate(), Error);
}

// ------------------------------------------------------------ perf model

class PerfModelTest : public ::testing::Test {
 protected:
  SocSpec spec_ = SocSpec::exynos5422();
  PerfModel model_{spec_};
  DecisionSpace space_{spec_};

  DrmDecision decision(int a_big, int f_big, int a_little, int f_little) {
    DrmDecision d;
    d.active_cores = {a_big, a_little};
    d.freq_level = {f_big, f_little};
    return d;
  }
};

TEST_F(PerfModelTest, TimeDecreasesWithFrequencyForComputeBound) {
  const EpochWorkload w = compute_bound_epoch();
  double prev = 1e18;
  for (int level = 0; level < 19; level += 3) {
    const EpochResult r = model_.run_epoch(w, decision(4, level, 1, 6));
    EXPECT_LT(r.time_s, prev) << "level " << level;
    prev = r.time_s;
  }
}

TEST_F(PerfModelTest, MemoryBoundGainsLittleFromFrequency) {
  const EpochWorkload w = memory_bound_epoch();
  const double t_low = model_.run_epoch(w, decision(4, 9, 1, 6)).time_s;
  const double t_high = model_.run_epoch(w, decision(4, 18, 1, 6)).time_s;
  // Doubling frequency buys well under 2x on memory-bound phases.
  EXPECT_LT(t_low / t_high, 1.45);
  const EpochWorkload c = compute_bound_epoch();
  const double ct_low = model_.run_epoch(c, decision(4, 9, 1, 6)).time_s;
  const double ct_high = model_.run_epoch(c, decision(4, 18, 1, 6)).time_s;
  EXPECT_GT(ct_low / ct_high, t_low / t_high);
}

TEST_F(PerfModelTest, PowerIncreasesWithFrequency) {
  const EpochWorkload w = compute_bound_epoch();
  const double p_low = model_.run_epoch(w, decision(4, 4, 1, 0)).avg_power_w;
  const double p_high =
      model_.run_epoch(w, decision(4, 18, 1, 0)).avg_power_w;
  EXPECT_GT(p_high, 1.8 * p_low);
}

TEST_F(PerfModelTest, EnergyBathtubExistsForComputeBound) {
  // Energy vs frequency is not monotone: leakage dominates at low f
  // (long runtimes), V^2 f dominates at high f.
  const EpochWorkload w = compute_bound_epoch();
  const double e_min = model_.run_epoch(w, decision(4, 0, 1, 0)).energy_j;
  const double e_mid = model_.run_epoch(w, decision(4, 8, 1, 0)).energy_j;
  const double e_max = model_.run_epoch(w, decision(4, 18, 1, 0)).energy_j;
  EXPECT_LT(e_mid, e_max);
  EXPECT_LT(e_mid, e_min + 0.35 * e_min);  // mid beats or nears both ends
}

TEST_F(PerfModelTest, MemoryContentionMakesMoreCoresSlower) {
  // On a saturated memory phase, adding the little cluster to four max-
  // frequency big cores makes the epoch SLOWER (DRAM queueing) — the
  // mechanism behind "PaRMIS dominates the performance governor" in
  // Fig. 3: all-max is not even time-optimal.
  const EpochWorkload w = memory_bound_epoch();
  const double t_all = model_.run_epoch(w, decision(4, 18, 4, 12)).time_s;
  const double t_big_only = model_.run_epoch(w, decision(4, 18, 1, 0)).time_s;
  EXPECT_LT(t_big_only, t_all);
}

TEST_F(PerfModelTest, MoreCoresHelpComputeBoundParallel) {
  EpochWorkload w = compute_bound_epoch();
  w.parallel_fraction = 0.9;
  const double t_one = model_.run_epoch(w, decision(1, 18, 1, 0)).time_s;
  const double t_four = model_.run_epoch(w, decision(4, 18, 1, 0)).time_s;
  EXPECT_LT(t_four, 0.5 * t_one);
}

TEST_F(PerfModelTest, SerialWorkRunsOnBigWhenAvailable) {
  EpochWorkload w = compute_bound_epoch();
  w.parallel_fraction = 0.0;
  // All-little is much slower than one big core for serial big-affine code.
  const double t_little = model_.run_epoch(w, decision(0, 0, 4, 12)).time_s;
  const double t_big = model_.run_epoch(w, decision(1, 18, 1, 0)).time_s;
  EXPECT_GT(t_little, 2.0 * t_big);
}

TEST_F(PerfModelTest, ZeroBigCoresIsSupported) {
  const EpochWorkload w = memory_bound_epoch();
  const EpochResult r = model_.run_epoch(w, decision(0, 0, 4, 12));
  EXPECT_GT(r.time_s, 0.0);
  EXPECT_DOUBLE_EQ(r.cluster_power_w[0], 0.0);  // big rail is dark
  EXPECT_DOUBLE_EQ(r.counters.big_utilization, 0.0);
}

TEST_F(PerfModelTest, EnergyEqualsPowerTimesTime) {
  const EpochResult r =
      model_.run_epoch(compute_bound_epoch(), decision(3, 10, 2, 5));
  EXPECT_NEAR(r.energy_j, r.avg_power_w * r.time_s, 1e-9);
  double rails = r.mem_power_w + r.uncore_power_w;
  for (double p : r.cluster_power_w) rails += p;
  EXPECT_NEAR(rails, r.avg_power_w, 1e-9);
}

TEST_F(PerfModelTest, CountersAreConsistent) {
  const EpochWorkload w = compute_bound_epoch();
  const EpochResult r = model_.run_epoch(w, decision(4, 10, 2, 5));
  const HwCounters& hc = r.counters;
  EXPECT_DOUBLE_EQ(hc.instructions_retired, 1e9);
  EXPECT_GT(hc.cpu_cycles, 0.0);
  EXPECT_GE(hc.big_utilization, 0.0);
  EXPECT_LE(hc.big_utilization, 1.0);
  EXPECT_GE(hc.little_utilization_sum, 0.0);
  EXPECT_LE(hc.little_utilization_sum, 4.0);
  EXPECT_LE(hc.max_core_utilization, 1.0);
  EXPECT_GT(hc.max_core_utilization, 0.5);
  EXPECT_NEAR(hc.noncache_external_requests, 0.8 * hc.l2_cache_misses,
              1e-6);
  EXPECT_NEAR(hc.total_power_w, r.avg_power_w, 1e-12);
}

TEST_F(PerfModelTest, FeatureVectorIsBounded) {
  const EpochResult r =
      model_.run_epoch(memory_bound_epoch(), decision(4, 18, 4, 12));
  const num::Vec f = r.counters.to_features();
  ASSERT_EQ(f.size(), kNumCounterFeatures);
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST_F(PerfModelTest, RejectsInvalidDecision) {
  DrmDecision d = decision(5, 0, 1, 0);  // 5 big cores do not exist
  EXPECT_THROW(model_.run_epoch(compute_bound_epoch(), d), Error);
  d = decision(4, 25, 1, 0);
  EXPECT_THROW(model_.run_epoch(compute_bound_epoch(), d), Error);
}

TEST_F(PerfModelTest, ThroughputHelperMatchesModelOrdering) {
  const EpochWorkload w = compute_bound_epoch();
  EXPECT_GT(model_.core_throughput_gips(0, 2.0, w),
            model_.core_throughput_gips(1, 1.4, w));
  EXPECT_GT(model_.core_throughput_gips(0, 2.0, w),
            model_.core_throughput_gips(0, 1.0, w));
}

/// Property sweep: random workloads and decisions always yield finite,
/// positive time/energy and bounded counters.
class PerfModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PerfModelFuzz, AlwaysFiniteAndPositive) {
  const SocSpec spec = SocSpec::exynos5422();
  const PerfModel model(spec);
  const DecisionSpace space(spec);
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    EpochWorkload w;
    w.instructions_g = rng.uniform(0.01, 3.0);
    w.parallel_fraction = rng.uniform(0.0, 1.0);
    w.mem_bytes_per_instr = rng.uniform(0.01, 2.5);
    w.branch_miss_rate = rng.uniform(0.0, 0.05);
    w.ilp = rng.uniform(0.15, 1.0);
    w.big_affinity = rng.uniform(0.0, 1.0);
    w.duty = rng.uniform(0.5, 1.0);
    const DrmDecision d = space.decision(rng.uniform_index(space.size()));
    const EpochResult r = model.run_epoch(w, d);
    EXPECT_TRUE(std::isfinite(r.time_s));
    EXPECT_GT(r.time_s, 0.0);
    EXPECT_TRUE(std::isfinite(r.energy_j));
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_GT(r.avg_power_w, 0.0);
    for (double v : r.counters.to_features()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerfModelFuzz,
                         ::testing::Values(101, 202, 303, 404));

// --------------------------------------------------------------- platform

TEST(Platform, NoiseFreeIsDeterministic) {
  const SocSpec spec = SocSpec::exynos5422();
  Platform p1(spec), p2(spec);
  const DecisionSpace space(spec);
  const EpochWorkload w = compute_bound_epoch();
  const DrmDecision d = space.default_decision();
  const EpochResult r1 = p1.run_epoch(w, d);
  const EpochResult r2 = p2.run_epoch(w, d);
  EXPECT_DOUBLE_EQ(r1.time_s, r2.time_s);
  EXPECT_DOUBLE_EQ(r1.energy_j, r2.energy_j);
}

TEST(Platform, SensorNoiseIsSeededAndBounded) {
  const SocSpec spec = SocSpec::exynos5422();
  PlatformConfig cfg;
  cfg.sensor_noise_sd = 0.02;
  cfg.noise_seed = 99;
  Platform noisy(spec, cfg);
  Platform clean(spec);
  const DecisionSpace space(spec);
  const EpochWorkload w = compute_bound_epoch();
  const DrmDecision d = space.default_decision();
  const double clean_e = clean.run_epoch(w, d).energy_j;
  num::Vec ratios;
  for (int i = 0; i < 200; ++i) {
    ratios.push_back(noisy.run_epoch(w, d).energy_j / clean_e);
  }
  EXPECT_NEAR(num::mean(ratios), 1.0, 0.01);
  EXPECT_NEAR(num::stddev(ratios), 0.02, 0.008);
  // Same seed -> same noise stream.
  noisy.reseed_sensors(99);
  Platform noisy2(spec, cfg);
  EXPECT_DOUBLE_EQ(noisy.run_epoch(w, d).energy_j,
                   noisy2.run_epoch(w, d).energy_j);
}

TEST(Platform, DvfsTransitionChargesTimeAndEnergy) {
  const SocSpec spec = SocSpec::exynos5422();
  Platform platform(spec);
  const DecisionSpace space(spec);
  const EpochWorkload w = compute_bound_epoch();
  DrmDecision a = space.default_decision();
  DrmDecision b = a;
  b.freq_level[0] += 1;
  b.freq_level[1] += 1;
  const double t_same = platform.run_epoch(w, a, a).time_s;
  const double t_switch = platform.run_epoch(w, a, b).time_s;
  EXPECT_NEAR(t_switch - t_same, 2 * spec.dvfs_transition_s, 1e-9);
}

TEST(Platform, HotplugTransitionsAreExpensive) {
  const SocSpec spec = SocSpec::exynos5422();
  Platform platform(spec);
  const DecisionSpace space(spec);
  const EpochWorkload w = compute_bound_epoch();
  DrmDecision a = space.default_decision();  // 4 big + 4 little online
  DrmDecision b = a;
  b.active_cores[0] = 1;  // three big cores hot-unplugged
  const double t_same = platform.run_epoch(w, b, b).time_s;
  const double t_toggle = platform.run_epoch(w, b, a).time_s;
  EXPECT_NEAR(t_toggle - t_same, 3 * spec.hotplug_transition_s, 1e-9);
  // Hotplug dominates DVFS switching by an order of magnitude.
  EXPECT_GT(spec.hotplug_transition_s, 10 * spec.dvfs_transition_s);
}

TEST(Platform, RejectsAbsurdNoise) {
  const SocSpec spec = SocSpec::exynos5422();
  PlatformConfig cfg;
  cfg.sensor_noise_sd = 0.9;
  EXPECT_THROW(Platform(spec, cfg), Error);
}

// ---------------------------------------------------------------- thermal

TEST(Thermal, SteadyStateMatchesFormula) {
  ThermalModel tm;
  EXPECT_DOUBLE_EQ(tm.steady_state_c(0.0), 25.0);
  EXPECT_DOUBLE_EQ(tm.steady_state_c(5.0), 25.0 + 5.0 * 8.0);
}

TEST(Thermal, ConvergesToSteadyState) {
  ThermalModel tm;
  for (int i = 0; i < 10000; ++i) tm.step(4.0, 0.1);
  EXPECT_NEAR(tm.temperature_c(), tm.steady_state_c(4.0), 0.01);
}

TEST(Thermal, ExactExponentialStep) {
  ThermalParams p;
  ThermalModel tm(p);
  const double target = tm.steady_state_c(6.0);
  const double tau = p.resistance_c_per_w * p.capacitance_j_per_c;
  const double expected =
      target + (p.ambient_c - target) * std::exp(-1.0 / tau);
  EXPECT_NEAR(tm.step(6.0, 1.0), expected, 1e-9);
}

TEST(Thermal, ThrottleLatchesWithHysteresis) {
  ThermalModel tm;
  // Heat far past the trip point.
  while (tm.temperature_c() < tm.params().trip_point_c) tm.step(9.0, 1.0);
  EXPECT_TRUE(tm.throttled());
  // Cooling slightly below trip does not release (hysteresis).
  while (tm.temperature_c() > 80.0) tm.step(0.0, 0.2);
  EXPECT_TRUE(tm.throttled());
  // Cooling below the release point does.
  while (tm.temperature_c() > tm.params().release_point_c) tm.step(0.0, 0.2);
  EXPECT_FALSE(tm.throttled());
}

TEST(Thermal, ApplyThrottleCapsFrequency) {
  const SocSpec spec = SocSpec::exynos5422();
  const DecisionSpace space(spec);
  ThermalModel tm;
  while (tm.temperature_c() < tm.params().trip_point_c) tm.step(9.0, 1.0);
  const DrmDecision capped =
      tm.apply_throttle(spec, space.max_performance_decision(), 0.5);
  EXPECT_LE(capped.freq_level[0], 9);
  EXPECT_LE(capped.freq_level[1], 6);
  tm.reset();
  EXPECT_FALSE(tm.throttled());
  const DrmDecision untouched =
      tm.apply_throttle(spec, space.max_performance_decision(), 0.5);
  EXPECT_EQ(untouched, space.max_performance_decision());
}

TEST(Thermal, ValidatesParameters) {
  ThermalParams p;
  p.resistance_c_per_w = 0.0;
  EXPECT_THROW(ThermalModel{p}, Error);
  ThermalParams q;
  q.trip_point_c = 50.0;
  q.release_point_c = 60.0;
  EXPECT_THROW(ThermalModel{q}, Error);
}

}  // namespace
}  // namespace parmis::soc
