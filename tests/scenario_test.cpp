// Unit tests for src/scenario: workload generator determinism, the
// scenario registry, and the mobile3 platform variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.hpp"
#include "common/error.hpp"
#include "scenario/scenario.hpp"
#include "scenario/workload_gen.hpp"
#include "soc/decision.hpp"
#include "soc/spec.hpp"

namespace parmis::scenario {
namespace {

// ----------------------------------------------------- workload generator

void expect_identical(const soc::Application& a, const soc::Application& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].instructions_g, b.epochs[e].instructions_g);
    EXPECT_EQ(a.epochs[e].parallel_fraction, b.epochs[e].parallel_fraction);
    EXPECT_EQ(a.epochs[e].mem_bytes_per_instr,
              b.epochs[e].mem_bytes_per_instr);
    EXPECT_EQ(a.epochs[e].branch_miss_rate, b.epochs[e].branch_miss_rate);
    EXPECT_EQ(a.epochs[e].ilp, b.epochs[e].ilp);
    EXPECT_EQ(a.epochs[e].big_affinity, b.epochs[e].big_affinity);
    EXPECT_EQ(a.epochs[e].duty, b.epochs[e].duty);
  }
}

TEST(WorkloadGen, SameSeedBitwiseIdenticalApps) {
  WorkloadGenConfig config;
  config.num_apps = 5;
  const auto a = generate_applications(config, 42);
  const auto b = generate_applications(config, 42);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(WorkloadGen, DifferentSeedsDiverge) {
  WorkloadGenConfig config;
  const auto a = generate_applications(config, 1);
  const auto b = generate_applications(config, 2);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].epochs.size() != b[i].epochs.size() ||
        a[i].epochs[0].instructions_g != b[i].epochs[0].instructions_g) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadGen, AppSubstreamsArePrefixStable) {
  // App i only consumes its own split stream, so growing the suite never
  // changes the apps already generated.
  WorkloadGenConfig small;
  small.num_apps = 2;
  WorkloadGenConfig large = small;
  large.num_apps = 6;
  const auto a = generate_applications(small, 7);
  const auto b = generate_applications(large, 7);
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(WorkloadGen, GeneratedAppsAreValidAndNamed) {
  WorkloadGenConfig config;
  config.num_apps = 8;
  config.jitter = 0.5;  // aggressive jitter still clamps into valid ranges
  const auto apps = generate_applications(config, 3);
  std::set<std::string> names;
  for (const auto& app : apps) {
    EXPECT_NO_THROW(app.validate());
    EXPECT_EQ(app.name.rfind("synth-", 0), 0u);
    names.insert(app.name);
  }
  EXPECT_EQ(names.size(), apps.size());  // names unique
}

TEST(WorkloadGen, RespectsEpochCountBounds) {
  WorkloadGenConfig config;
  config.num_apps = 6;
  config.min_phases = 2;
  config.max_phases = 3;
  config.min_run_length = 2;
  config.max_run_length = 5;
  for (const auto& app : generate_applications(config, 11)) {
    EXPECT_GE(app.num_epochs(), 4u);    // 2 phases * 2 epochs
    EXPECT_LE(app.num_epochs(), 15u);   // 3 phases * 5 epochs
  }
}

TEST(WorkloadGen, RejectsBadConfig) {
  WorkloadGenConfig config;
  config.num_apps = 0;
  EXPECT_THROW(generate_applications(config, 1), Error);
  config.num_apps = 1;
  config.min_phases = 3;
  config.max_phases = 2;
  EXPECT_THROW(generate_applications(config, 1), Error);
}

// -------------------------------------------------------------- registry

TEST(ScenarioRegistry, CatalogueHasAtLeastEightScenarios) {
  EXPECT_GE(scenario_names().size(), 8u);
  EXPECT_EQ(all_scenarios().size(), scenario_names().size());
}

TEST(ScenarioRegistry, EveryScenarioValidatesAndMaterializes) {
  for (const auto& spec : all_scenarios()) {
    SCOPED_TRACE(spec.name);
    EXPECT_NO_THROW(spec.validate());
    const soc::SocSpec platform = make_platform_spec(spec);
    EXPECT_FALSE(platform.clusters.empty());
    const auto apps = make_applications(spec);
    EXPECT_FALSE(apps.empty());
    for (const auto& app : apps) EXPECT_NO_THROW(app.validate());
    EXPECT_GE(make_objectives(spec).size(), 2u);
  }
}

TEST(ScenarioRegistry, CoversAllPlatformVariants) {
  std::set<std::string> platforms;
  for (const auto& spec : all_scenarios()) platforms.insert(spec.platform);
  for (const auto& variant : soc::SocSpec::variant_names()) {
    EXPECT_TRUE(platforms.count(variant)) << variant;
  }
}

TEST(ScenarioRegistry, UnknownScenarioThrows) {
  EXPECT_THROW(make_scenario("no-such-scenario"), Error);
}

TEST(ScenarioRegistry, MaterializationIsDeterministic) {
  const ScenarioSpec spec = make_scenario("xu3-synthetic-te");
  const auto a = make_applications(spec);
  const auto b = make_applications(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(ScenarioSpecValidation, RejectsInconsistentSpecs) {
  ScenarioSpec spec = make_scenario("xu3-mibench-te");
  spec.platform = "unknown-soc";
  EXPECT_THROW(spec.validate(), Error);

  spec = make_scenario("xu3-mibench-te");
  spec.benchmark_apps = {"not-a-benchmark"};
  EXPECT_THROW(spec.validate(), Error);

  spec = make_scenario("xu3-mibench-te");
  spec.objectives = {runtime::ObjectiveKind::ExecutionTime};
  EXPECT_THROW(spec.validate(), Error);

  spec = make_scenario("xu3-mibench-te");
  spec.methods = {"no-such-method"};
  EXPECT_THROW(spec.validate(), Error);

  spec = make_scenario("xu3-mibench-te");
  spec.benchmark_apps.clear();
  spec.generated.reset();
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ScenarioSpecValidation, RejectsHostileFrontSamplerBudgets) {
  // Each bad value fails validate() with the scenario's name, so a plan
  // carrying it is refused at load instead of failing inside a cell.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Edit = std::function<void(core::AcquisitionConfig&)>;
  const std::vector<std::pair<std::string, Edit>> cases = {
      {"odd population",
       [](auto& a) { a.front_sampler.population_size = 15; }},
      {"population 2", [](auto& a) { a.front_sampler.population_size = 2; }},
      {"population 0", [](auto& a) { a.front_sampler.population_size = 0; }},
      {"crossover NaN",
       [&](auto& a) { a.front_sampler.crossover_probability = nan; }},
      {"crossover inf",
       [&](auto& a) { a.front_sampler.crossover_probability = inf; }},
      {"crossover > 1",
       [](auto& a) { a.front_sampler.crossover_probability = 1.5; }},
      {"mutation NaN",
       [&](auto& a) { a.front_sampler.mutation_probability = nan; }},
      {"mutation -inf",
       [&](auto& a) { a.front_sampler.mutation_probability = -inf; }},
      {"mutation > 1",
       [](auto& a) { a.front_sampler.mutation_probability = 2.0; }},
      {"sbx_eta NaN", [&](auto& a) { a.front_sampler.sbx_eta = nan; }},
      {"sbx_eta inf", [&](auto& a) { a.front_sampler.sbx_eta = inf; }},
      {"sbx_eta < 0", [](auto& a) { a.front_sampler.sbx_eta = -1.0; }},
      {"mutation_eta NaN",
       [&](auto& a) { a.front_sampler.mutation_eta = nan; }},
      {"mutation_eta inf",
       [&](auto& a) { a.front_sampler.mutation_eta = inf; }},
      {"mutation_eta < 0",
       [](auto& a) { a.front_sampler.mutation_eta = -0.5; }},
      {"num_mc_samples 0", [](auto& a) { a.num_mc_samples = 0; }},
      {"rff_features 0", [](auto& a) { a.rff_features = 0; }},
  };
  for (const auto& [what, edit] : cases) {
    ScenarioSpec spec = make_scenario("xu3-mibench-te");
    edit(spec.parmis.acquisition);
    try {
      spec.validate();
      ADD_FAILURE() << what << ": accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("xu3-mibench-te"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }

  // The edges stay legal: no mutation, certain crossover, eta 0.
  ScenarioSpec spec = make_scenario("xu3-mibench-te");
  moo::Nsga2Config& fs = spec.parmis.acquisition.front_sampler;
  fs.mutation_probability = 0.0;
  fs.crossover_probability = 1.0;
  fs.sbx_eta = 0.0;
  fs.mutation_eta = 0.0;
  fs.population_size = 4;
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpecValidation, RejectsHostileParmisFields) {
  // Fields a PaRMIS cell reads only after it starts (the GP kernel and
  // noise, the theta box, the candidate pool) fail validate() with the
  // scenario's name instead of failing mid-campaign.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Edit = std::function<void(core::ParmisConfig&)>;
  const std::vector<std::pair<std::string, Edit>> cases = {
      {"kernel ard_rbf", [](auto& p) { p.kernel = "ard_rbf"; }},
      {"kernel empty", [](auto& p) { p.kernel = ""; }},
      {"noise 0", [](auto& p) { p.noise_variance = 0.0; }},
      {"noise < 0", [](auto& p) { p.noise_variance = -1e-4; }},
      {"noise inf", [&](auto& p) { p.noise_variance = inf; }},
      {"noise NaN", [&](auto& p) { p.noise_variance = nan; }},
      {"theta_bound 0", [](auto& p) { p.theta_bound = 0.0; }},
      {"theta_bound inf", [&](auto& p) { p.theta_bound = inf; }},
      {"theta_bound NaN", [&](auto& p) { p.theta_bound = nan; }},
      {"perturbation_sd < 0", [](auto& p) { p.perturbation_sd = -1.0; }},
      {"perturbation_sd inf", [&](auto& p) { p.perturbation_sd = inf; }},
      {"perturbation_sd NaN", [&](auto& p) { p.perturbation_sd = nan; }},
      {"acq_pool_size 0", [](auto& p) { p.acq_pool_size = 0; }},
  };
  for (const auto& [what, edit] : cases) {
    ScenarioSpec spec = make_scenario("xu3-mibench-te");
    edit(spec.parmis);
    EXPECT_FALSE(core::parmis_config_error(spec.parmis).empty()) << what;
    try {
      spec.validate();
      ADD_FAILURE() << what << ": accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("xu3-mibench-te"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }

  // The edges stay legal: both kernels, no perturbation, a one-point pool.
  ScenarioSpec spec = make_scenario("xu3-mibench-te");
  spec.parmis.kernel = "matern52";
  spec.parmis.perturbation_sd = 0.0;
  spec.parmis.acq_pool_size = 1;
  EXPECT_EQ(core::parmis_config_error(spec.parmis), "");
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------ platform variants

TEST(PlatformVariants, Mobile3IsAValidThreeClusterSpec) {
  const soc::SocSpec spec = soc::SocSpec::mobile3();
  ASSERT_EQ(spec.clusters.size(), 3u);
  EXPECT_EQ(spec.clusters[0].name, "prime");
  EXPECT_EQ(spec.clusters[0].num_cores, 1);
  EXPECT_EQ(spec.clusters[2].min_active, 1);  // silver hosts the OS
  EXPECT_GT(spec.decision_space_size(), 1000u);
  const soc::DecisionSpace space(spec);
  EXPECT_EQ(space.size(), spec.decision_space_size());
  EXPECT_TRUE(space.is_valid(space.default_decision()));
  EXPECT_TRUE(space.is_valid(space.max_performance_decision()));
  EXPECT_TRUE(space.is_valid(space.min_power_decision()));
}

TEST(PlatformVariants, ByNameRoundTripsAllVariants) {
  for (const auto& name : soc::SocSpec::variant_names()) {
    EXPECT_EQ(soc::SocSpec::by_name(name).name, name);
  }
  EXPECT_THROW(soc::SocSpec::by_name("zilog-z80"), Error);
}

}  // namespace
}  // namespace parmis::scenario
