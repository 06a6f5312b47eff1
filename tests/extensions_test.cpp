// Cross-cutting tests for the extension features and deeper property
// sweeps: 3-objective NSGA-II + hypervolume, GP posterior contraction,
// straggler/duty model properties, noisy-platform PaRMIS, EDP/peak-power
// objectives, and the deployment path (campaign report -> served
// policy -> re-measured objectives).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "apps/benchmarks.hpp"
#include "baselines/rl_tabular.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "exec/campaign.hpp"
#include "gp/gp.hpp"
#include "methods/registry.hpp"
#include "moo/hypervolume.hpp"
#include "moo/nsga2.hpp"
#include "moo/pareto.hpp"
#include "policy/governors.hpp"
#include "policy/mlp_policy.hpp"
#include "report/report_json.hpp"
#include "runtime/evaluator.hpp"
#include "scenario/scenario.hpp"
#include "serde/plan.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "soc/perf_model.hpp"
#include "soc/platform.hpp"
#include "test_problems.hpp"

namespace parmis {
namespace {

using num::Vec;

// ------------------------------------------------ 3-objective machinery

TEST(ThreeObjectives, Nsga2ApproachesDtlz2Sphere) {
  moo::Nsga2Config cfg;
  cfg.population_size = 64;
  cfg.generations = 80;
  cfg.seed = 3;
  const Vec lo(7, 0.0), hi(7, 1.0);
  const auto res = moo::nsga2_minimize(
      [](const Vec& x) { return moo::dtlz2(x, 3); }, lo, hi, cfg);
  // On the true front, sum of squares == 1; measure mean deviation.
  double dev = 0.0;
  for (const auto& s : res.pareto_set) {
    double ss = 0.0;
    for (double v : s.objectives) ss += v * v;
    dev += std::abs(std::sqrt(ss) - 1.0);
  }
  dev /= static_cast<double>(res.pareto_set.size());
  EXPECT_LT(dev, 0.12);
}

TEST(ThreeObjectives, HypervolumeDispatcherHandles3d) {
  moo::Nsga2Config cfg;
  cfg.population_size = 32;
  cfg.generations = 30;
  cfg.seed = 4;
  const Vec lo(7, 0.0), hi(7, 1.0);
  const auto res = moo::nsga2_minimize(
      [](const Vec& x) { return moo::dtlz2(x, 3); }, lo, hi, cfg);
  std::vector<Vec> front;
  for (const auto& s : res.pareto_set) front.push_back(s.objectives);
  const double hv = moo::hypervolume(front, {2.0, 2.0, 2.0});
  // The unit-sphere front within a 2^3 box dominates most of it.
  EXPECT_GT(hv, 5.0);
  EXPECT_LT(hv, 8.0);
}

TEST(ThreeObjectives, HypervolumeTranslationInvariance) {
  Rng rng(5);
  std::vector<Vec> pts;
  for (int i = 0; i < 15; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const double hv = moo::hypervolume_wfg(pts, {1.5, 1.5, 1.5});
  std::vector<Vec> shifted;
  for (const auto& p : pts) {
    shifted.push_back({p[0] + 10, p[1] - 3, p[2] + 0.5});
  }
  const double hv_shifted =
      moo::hypervolume_wfg(shifted, {11.5, -1.5, 2.0});
  EXPECT_NEAR(hv, hv_shifted, 1e-9);
}

// --------------------------------------------------- GP posterior sanity

TEST(GpPosterior, VarianceNeverExceedsPrior) {
  Rng rng(6);
  gp::GpRegressor gp(gp::make_kernel("matern52", 1.0, 2.0), 1e-3);
  num::Matrix X(12, 2);
  Vec y(12);
  for (int i = 0; i < 12; ++i) {
    X(i, 0) = rng.uniform(-2, 2);
    X(i, 1) = rng.uniform(-2, 2);
    y[i] = std::sin(X(i, 0)) * std::cos(X(i, 1));
  }
  gp.set_data(X, y);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec q = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    const auto p = gp.predict(q);
    EXPECT_LE(p.variance,
              gp.kernel().prior_variance() *
                      (gp.target_scale() * gp.target_scale()) +
                  1e-9);
  }
}

TEST(GpPosterior, MoreDataContractsUncertainty) {
  gp::GpRegressor sparse(gp::make_kernel("rbf", 1.0), 1e-4);
  gp::GpRegressor dense(gp::make_kernel("rbf", 1.0), 1e-4);
  auto grid = [](std::size_t n) {
    num::Matrix X(n, 1);
    Vec y(n);
    for (std::size_t i = 0; i < n; ++i) {
      X(i, 0) = -2.0 + 4.0 * static_cast<double>(i) /
                           static_cast<double>(n - 1);
      y[i] = std::sin(X(i, 0));
    }
    return std::make_pair(X, y);
  };
  auto [xs, ys] = grid(4);
  sparse.set_data(xs, ys);
  auto [xd, yd] = grid(16);
  dense.set_data(xd, yd);
  const Vec q = {0.37};
  EXPECT_LT(dense.predict(q).stddev(), sparse.predict(q).stddev());
}

// ------------------------------------------------ simulator properties

TEST(StragglerModel, LittleCoresHurtBranchyParallelCode) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  const soc::PerfModel model(spec);
  soc::EpochWorkload branchy{.instructions_g = 1.0,
                             .parallel_fraction = 0.8,
                             .mem_bytes_per_instr = 0.3,
                             .branch_miss_rate = 0.025,
                             .ilp = 0.6,
                             .big_affinity = 0.7,
                             .duty = 0.9};
  soc::DrmDecision big_only{{4, 1}, {18, 0}};
  soc::DrmDecision all_on{{4, 4}, {18, 12}};
  EXPECT_LT(model.run_epoch(branchy, big_only).time_s,
            model.run_epoch(branchy, all_on).time_s);
  // Regular (low-miss) code does NOT suffer: more cores help.
  soc::EpochWorkload regular = branchy;
  regular.branch_miss_rate = 0.002;
  EXPECT_GT(model.run_epoch(regular, big_only).time_s,
            model.run_epoch(regular, all_on).time_s);
}

TEST(DutyCycle, LowersKernelVisibleLoadNotWallTime) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  const soc::PerfModel model(spec);
  soc::EpochWorkload busy{.instructions_g = 0.5,
                          .parallel_fraction = 0.5,
                          .mem_bytes_per_instr = 0.3,
                          .branch_miss_rate = 0.005,
                          .ilp = 0.8,
                          .big_affinity = 0.6,
                          .duty = 1.0};
  soc::EpochWorkload slack = busy;
  slack.duty = 0.7;
  const soc::DecisionSpace space(spec);
  const auto d = space.default_decision();
  const auto r_busy = model.run_epoch(busy, d);
  const auto r_slack = model.run_epoch(slack, d);
  EXPECT_DOUBLE_EQ(r_busy.time_s, r_slack.time_s);
  EXPECT_GT(r_busy.counters.max_core_utilization,
            r_slack.counters.max_core_utilization);
  EXPECT_NEAR(r_slack.counters.max_core_utilization,
              0.7 * r_busy.counters.max_core_utilization, 1e-9);
}

TEST(ManycorePlatform, EpochRunsAndScales) {
  const soc::SocSpec spec = soc::SocSpec::manycore16();
  const soc::PerfModel model(spec);
  soc::EpochWorkload parallel{.instructions_g = 2.0,
                              .parallel_fraction = 0.95,
                              .mem_bytes_per_instr = 0.1,
                              .branch_miss_rate = 0.003,
                              .ilp = 0.85,
                              .big_affinity = 0.5,
                              .duty = 0.95};
  soc::DrmDecision narrow{{1, 1, 0, 0}, {18, 0, 0, 0}};
  soc::DrmDecision wide{{4, 4, 4, 4}, {18, 12, 18, 12}};
  const double t_narrow = model.run_epoch(parallel, narrow).time_s;
  const double t_wide = model.run_epoch(parallel, wide).time_s;
  EXPECT_LT(t_wide, 0.4 * t_narrow);  // 16 cores buy real speedup
}

// ----------------------------------------- objectives beyond the paper

TEST(ExtendedObjectives, EdpAndPeakPowerBehave) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  runtime::Evaluator eval(platform);
  const soc::Application app = apps::make_benchmark("blowfish");
  policy::PerformanceGovernor fast(platform.decision_space());
  policy::PowersaveGovernor slow(platform.decision_space());
  const auto mf = eval.run(fast, app);
  const auto ms = eval.run(slow, app);
  // Peak power orders as expected; EDP can favor either extreme but must
  // equal E*T for both.
  EXPECT_GT(mf.peak_power_w, ms.peak_power_w);
  EXPECT_NEAR(mf.edp, mf.energy_j * mf.time_s, 1e-9);
  const runtime::Objective edp(runtime::ObjectiveKind::EDP);
  const runtime::Objective peak(runtime::ObjectiveKind::PeakPower);
  EXPECT_DOUBLE_EQ(edp.min_value(mf), mf.edp);
  EXPECT_DOUBLE_EQ(peak.raw_value(ms), ms.peak_power_w);
}

// --------------------------------------------- PaRMIS on a noisy board

TEST(NoisyPlatform, ParmisToleratesSensorNoise) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::PlatformConfig noisy_cfg;
  noisy_cfg.sensor_noise_sd = 0.02;  // 2% power-rail noise
  soc::Platform platform(spec, noisy_cfg);
  soc::Application app = apps::make_benchmark("fft");
  app.epochs.resize(10);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::ParmisConfig cfg;
  cfg.num_initial = 10;
  cfg.max_iterations = 10;
  cfg.acq_pool_size = 48;
  cfg.acq_refine_steps = 4;
  cfg.acquisition.rff_features = 48;
  cfg.acquisition.front_sampler.population_size = 16;
  cfg.acquisition.front_sampler.generations = 8;
  cfg.initial_thetas = problem.anchor_thetas();
  cfg.seed = 9;
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2, cfg);
  const auto res = opt.run();
  EXPECT_FALSE(res.pareto_indices.empty());
  for (const auto& o : res.objectives) {
    EXPECT_TRUE(std::isfinite(o[0]));
    EXPECT_TRUE(std::isfinite(o[1]));
  }
}

// ------------------------------------------------- deployment pipeline

TEST(Deployment, ServedPolicyReproducesItsFrontPointBitForBit) {
  // The shipped deployment path: a PaRMIS cell's report survives a JSON
  // round trip, is installed in a PolicyStore, and each mode's served
  // theta, loaded into an MLP policy and re-measured the way the cell
  // measured it, lands exactly on the served front point.
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-mibench-te")};
  scenario::ScenarioSpec& spec = config.scenarios[0];
  spec.methods = {"parmis"};
  spec.parmis.num_initial = 6;
  spec.parmis.max_iterations = 3;
  const exec::CampaignReport run = exec::CampaignRunner(config).run();
  ASSERT_EQ(run.cells.size(), 1u);
  ASSERT_TRUE(run.cells[0].error.empty()) << run.cells[0].error;
  const exec::CampaignReport report = report::parse_report(
      json::dump(report::report_to_json(run)), "deployment-test");

  serve::PolicyStore store;
  store.build_and_install({report}, {"deployment-test"});
  const serve::PolicyServer server(store);
  const auto snapshot = store.require_snapshot();

  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  runtime::GlobalEvaluator evaluator(
      platform, scenario::make_applications(spec),
      scenario::make_objectives(spec), scenario::make_evaluator_config(spec));
  policy::MlpPolicy policy(platform.decision_space());
  std::set<std::size_t> picked;
  for (const char* mode : {"performance", "balanced", "powersave"}) {
    serve::DecideRequest request;
    request.scenario = spec.name;
    request.mode = mode;
    const serve::Decision d = server.decide_on(*snapshot, request);
    picked.insert(d.index);
    ASSERT_EQ(d.entry->method, "parmis");
    ASSERT_EQ(d.entry->thetas.size(), d.entry->front.size());
    policy.set_parameters(d.entry->thetas[d.index]);
    const Vec measured = evaluator.evaluate(policy);
    const Vec& served = d.entry->front[d.index];
    ASSERT_EQ(measured.size(), served.size()) << mode;
    EXPECT_EQ(std::memcmp(measured.data(), served.data(),
                          served.size() * sizeof(double)),
              0)
        << mode << " index " << d.index;
  }
  EXPECT_GT(picked.size(), 1u) << "the modes should pick different members";
}

// ------------------------------------- out-of-tree method plugin path

/// Minimal out-of-tree method (the worked example lives in
/// examples/plugin_method/): evaluates the decision space's first and
/// last static configurations and returns the non-dominated subset.
class PluginStaticExtremesMethod final : public methods::Method {
 public:
  std::string name() const override { return "test-plugin-extremes"; }
  std::string description() const override {
    return "test plugin: static min/max configurations";
  }

  methods::MethodOutput run(const methods::CellContext& ctx,
                            const methods::MethodConfig* config) const
      override {
    require(config == nullptr, "test-plugin-extremes takes no config");
    const soc::DecisionSpace& space = ctx.platform.decision_space();
    runtime::GlobalEvaluator evaluator(ctx.platform, ctx.apps,
                                       ctx.objectives, ctx.eval_config);
    std::vector<num::Vec> points;
    for (std::size_t index : {std::size_t{0}, space.size() - 1}) {
      policy::StaticPolicy probe(space.decision(index), "extreme");
      points.push_back(evaluator.evaluate(probe));
    }
    methods::MethodOutput out;
    out.front = moo::pareto_front(points);
    out.evaluations = 2;
    return out;
  }
};

// Static-initialization self-registration, exactly what an out-of-tree
// plugin translation unit does.
const methods::MethodRegistrar kTestPlugin{
    std::make_unique<PluginStaticExtremesMethod>()};

TEST(MethodPlugin, RegistersAndRunsEndToEndThroughAPlanFile) {
  // The registrar above ran before main(): the method is now a
  // first-class campaign method, visible wherever built-ins are.
  const methods::MethodRegistry& registry =
      methods::MethodRegistry::instance();
  ASSERT_TRUE(registry.contains("test-plugin-extremes"));

  // A plan file can name it like any built-in; validation, resolution,
  // and the campaign runner all dispatch through the registry.
  const json::Value doc = json::parse(R"({
    "schema": "parmis-plan-v1",
    "name": "plugin-smoke",
    "scenarios": ["xu3-synthetic-te"],
    "methods": ["test-plugin-extremes", "powersave"],
    "seeds_per_cell": 1
  })");
  const serde::CampaignPlan plan =
      serde::plan_from_json(doc, "inline-plan");
  exec::CampaignConfig config =
      serde::to_campaign_config(plan, serde::ScenarioCatalogue{});
  config.num_threads = 2;
  const exec::CampaignReport report = exec::CampaignRunner(config).run();

  ASSERT_EQ(report.cells.size(), 2u);
  const exec::CellResult& cell = report.cells[0];
  EXPECT_EQ(cell.method, "test-plugin-extremes");
  EXPECT_TRUE(cell.error.empty()) << cell.error;
  EXPECT_EQ(cell.evaluations, 2u);
  EXPECT_FALSE(cell.front.empty());
  EXPECT_GT(cell.phv, 0.0);  // shares the cell-wide reference point

  // Plugin cells are deterministic like every campaign cell.
  const exec::CellResult again = exec::CampaignRunner::run_cell(
      config.scenarios[0], "test-plugin-extremes", 1, 3);
  ASSERT_EQ(again.front.size(), cell.front.size());
  for (std::size_t p = 0; p < cell.front.size(); ++p) {
    for (std::size_t j = 0; j < cell.front[p].size(); ++j) {
      EXPECT_EQ(again.front[p][j], cell.front[p][j]);
    }
  }
}

}  // namespace
}  // namespace parmis
