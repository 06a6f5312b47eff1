// End-to-end integration tests: the full PaRMIS pipeline against the
// baselines on the simulated platform, exercising the same code paths
// as the paper's evaluation (at miniature budgets).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/benchmarks.hpp"
#include "baselines/rl.hpp"
#include "common/rng.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "moo/pareto.hpp"
#include "policy/governors.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/selector.hpp"

namespace parmis {
namespace {

using num::Vec;

core::ParmisConfig mini_parmis(std::uint64_t seed) {
  core::ParmisConfig cfg;
  cfg.num_initial = 10;
  cfg.max_iterations = 30;
  cfg.acq_pool_size = 64;
  cfg.acq_refine_steps = 4;
  cfg.acquisition.rff_features = 48;
  cfg.acquisition.front_sampler.population_size = 16;
  cfg.acquisition.front_sampler.generations = 10;
  cfg.hyperopt_interval = 15;
  cfg.hyperopt_candidates = 8;
  cfg.seed = seed;
  cfg.track_convergence = true;
  return cfg;
}

soc::Application mini_app(const std::string& name, std::size_t epochs) {
  soc::Application app = apps::make_benchmark(name);
  if (app.epochs.size() > epochs) app.epochs.resize(epochs);
  return app;
}

TEST(Integration, ParmisFindsPoliciesDominatingPowersave) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("qsort", 14);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2,
                   mini_parmis(1));
  const core::ParmisResult res = opt.run();

  runtime::Evaluator eval(platform);
  policy::PowersaveGovernor powersave(platform.decision_space());
  const Vec gov_obj =
      eval.evaluate(powersave, app, runtime::time_energy_objectives());

  bool dominated = false;
  for (const auto& o : res.pareto_front()) {
    dominated |= moo::dominates(o, gov_obj);
  }
  EXPECT_TRUE(dominated)
      << "no PaRMIS policy dominates powersave at mini budget";
}

TEST(Integration, ParmisFrontSpansARealTradeoff) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("fft", 14);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2,
                   mini_parmis(2));
  const core::ParmisResult res = opt.run();
  const auto front = res.pareto_front();
  ASSERT_GE(front.size(), 2u);
  const Vec lo = moo::componentwise_min(front);
  const Vec hi = moo::componentwise_max(front);
  // The front covers a non-trivial span in both objectives.
  EXPECT_GT(hi[0] / lo[0], 1.15);
  EXPECT_GT(hi[1] / lo[1], 1.05);
}

TEST(Integration, ReturnedThetasReproduceTheirObjectives) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("dijkstra", 12);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2,
                   mini_parmis(3));
  const core::ParmisResult res = opt.run();

  runtime::Evaluator eval(platform);
  for (std::size_t i : res.pareto_indices) {
    policy::MlpPolicy p = problem.make_policy(res.thetas[i]);
    const Vec o =
        eval.evaluate(p, app, runtime::time_energy_objectives());
    EXPECT_NEAR(o[0], res.objectives[i][0], 1e-9);
    EXPECT_NEAR(o[1], res.objectives[i][1], 1e-9);
  }
}

TEST(Integration, PpwObjectivePipelineWorksEndToEnd) {
  // The paper's Sec. V-E headline: PaRMIS optimizes PPW directly, which
  // RL/IL structurally cannot.
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("dijkstra", 12);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_ppw_objectives());
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2,
                   mini_parmis(4));
  const core::ParmisResult res = opt.run();
  ASSERT_FALSE(res.pareto_indices.empty());
  // PPW values come back negated; raw values must be positive.
  for (const auto& o : res.pareto_front()) {
    EXPECT_GT(o[0], 0.0);
    EXPECT_LT(o[1], 0.0);
  }
  // And the baselines refuse the same objectives.
  EXPECT_THROW(baselines::RlTrainer(platform, app,
                                    runtime::time_ppw_objectives()),
               Error);
}

TEST(Integration, GlobalPoliciesGeneralizeAcrossApps) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  std::vector<soc::Application> train_apps = {mini_app("qsort", 8),
                                              mini_app("spectral", 8)};
  core::DrmPolicyProblem problem(platform, train_apps,
                                 runtime::time_energy_objectives());
  core::ParmisConfig cfg = mini_parmis(5);
  cfg.max_iterations = 15;
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2, cfg);
  const core::ParmisResult res = opt.run();
  ASSERT_FALSE(res.pareto_indices.empty());

  // Deploy one global policy on a third app: it must at least complete
  // and produce sane metrics.
  policy::MlpPolicy deployed =
      problem.make_policy(res.pareto_thetas().front());
  runtime::Evaluator eval(platform);
  const runtime::RunMetrics m = eval.run(deployed, mini_app("aes", 8));
  EXPECT_GT(m.time_s, 0.0);
  EXPECT_GT(m.ppw_mean, 0.0);
}

TEST(Integration, OnlineSelectionPicksDifferentPoliciesForPreferences) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("fft", 12);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2,
                   mini_parmis(6));
  const core::ParmisResult res = opt.run();
  const auto front = res.pareto_front();
  if (front.size() < 3) GTEST_SKIP() << "front too small at mini budget";
  runtime::PolicySelector selector(front);
  const std::size_t perf_pick = selector.select({1.0, 0.0});
  const std::size_t energy_pick = selector.select({0.0, 1.0});
  EXPECT_NE(perf_pick, energy_pick);
  EXPECT_LE(front[perf_pick][0], front[energy_pick][0]);
  EXPECT_LE(front[energy_pick][1], front[perf_pick][1]);
}

TEST(Integration, ConvergenceCurveFlattens) {
  // Fig. 2's qualitative shape: steep early gains, flat tail.
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = mini_app("blowfish", 10);
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::ParmisConfig cfg = mini_parmis(7);
  cfg.max_iterations = 40;
  core::Parmis opt(problem.evaluation_fn(), problem.theta_dim(), 2, cfg);
  const core::ParmisResult res = opt.run();
  const auto& h = res.phv_history;
  ASSERT_GE(h.size(), 40u);
  const double early_gain = h[h.size() / 2] - h.front();
  const double late_gain = h.back() - h[h.size() / 2];
  EXPECT_GE(early_gain, late_gain * 0.8);
  EXPECT_GT(h.back(), 0.0);
}

}  // namespace
}  // namespace parmis
