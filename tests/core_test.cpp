// Tests for src/core: the information-gain acquisition (Eq. 9) and the
// PaRMIS loop (Algorithm 1) on cheap synthetic problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "apps/benchmarks.hpp"
#include "common/error.hpp"
#include "core/acquisition.hpp"
#include "exec/thread_pool.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "moo/hypervolume.hpp"
#include "moo/pareto.hpp"
#include "numerics/distributions.hpp"

namespace parmis::core {
namespace {

using num::Vec;

/// Cheap synthetic bi-objective problem over theta in [-2,2]^d:
/// f1 = |theta - a|^2 / d, f2 = |theta - b|^2 / d — a known convex front
/// between the two anchor points.
EvaluationFn two_anchor_problem(std::size_t d) {
  return [d](const Vec& theta) {
    double f1 = 0.0, f2 = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      f1 += (theta[i] - 1.0) * (theta[i] - 1.0);
      f2 += (theta[i] + 1.0) * (theta[i] + 1.0);
    }
    return Vec{f1 / static_cast<double>(d), f2 / static_cast<double>(d)};
  };
}

std::vector<gp::GpRegressor> fitted_models(const EvaluationFn& fn,
                                           std::size_t d, std::size_t n,
                                           Rng& rng) {
  num::Matrix X(n, d);
  std::vector<Vec> ys(2, Vec(n));
  for (std::size_t i = 0; i < n; ++i) {
    Vec theta(d);
    for (auto& v : theta) v = rng.uniform(-2.0, 2.0);
    for (std::size_t c = 0; c < d; ++c) X(i, c) = theta[c];
    const Vec o = fn(theta);
    ys[0][i] = o[0];
    ys[1][i] = o[1];
  }
  std::vector<gp::GpRegressor> models;
  for (int j = 0; j < 2; ++j) {
    models.emplace_back(gp::make_kernel("rbf", std::sqrt(double(d))), 1e-4);
    models.back().set_data(X, ys[j]);
  }
  return models;
}

// ------------------------------------------------------------ acquisition

TEST(Acquisition, ValueIsNonNegativeAndFinite) {
  Rng rng(1);
  const std::size_t d = 3;
  const auto fn = two_anchor_problem(d);
  auto models = fitted_models(fn, d, 20, rng);
  const Vec lo(d, -2.0), hi(d, 2.0);
  AcquisitionConfig cfg;
  cfg.front_sampler.population_size = 16;
  cfg.front_sampler.generations = 10;
  const InformationGainAcquisition acq(models, lo, hi, cfg, rng);
  for (int trial = 0; trial < 100; ++trial) {
    Vec theta(d);
    for (auto& v : theta) v = rng.uniform(-2.0, 2.0);
    const double a = acq.value(theta);
    EXPECT_GE(a, 0.0);
    EXPECT_TRUE(std::isfinite(a));
  }
}

TEST(Acquisition, SampledFrontsAreNonDominatedAndBoundMinima) {
  Rng rng(2);
  const std::size_t d = 3;
  auto models = fitted_models(two_anchor_problem(d), d, 25, rng);
  const Vec lo(d, -2.0), hi(d, 2.0);
  AcquisitionConfig cfg;
  cfg.num_mc_samples = 3;
  cfg.front_sampler.population_size = 16;
  cfg.front_sampler.generations = 12;
  const InformationGainAcquisition acq(models, lo, hi, cfg, rng);

  ASSERT_EQ(acq.sampled_fronts().size(), 3u);
  ASSERT_EQ(acq.front_minima().size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    const auto& front = acq.sampled_fronts()[s];
    ASSERT_FALSE(front.empty());
    // Fronts are mutually non-dominated.
    for (std::size_t i = 0; i < front.size(); ++i) {
      for (std::size_t j = 0; j < front.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(moo::dominates(front[i], front[j]));
        }
      }
    }
    // The truncation points lower-bound the sampled front per dimension
    // (inequality 6, minimization convention).
    const Vec& mn = acq.front_minima()[s];
    for (const auto& z : front) {
      EXPECT_GE(z[0], mn[0] - 1e-12);
      EXPECT_GE(z[1], mn[1] - 1e-12);
    }
  }
  EXPECT_FALSE(acq.frontier_thetas().empty());
}

TEST(Acquisition, PrefersUnexploredRegions) {
  // Cluster all training data near theta = (-2,...): alpha should be
  // larger far from the data (high GP variance) than on top of it.
  Rng rng(3);
  const std::size_t d = 2;
  const auto fn = two_anchor_problem(d);
  num::Matrix X(15, d);
  Vec y0(15), y1(15);
  for (std::size_t i = 0; i < 15; ++i) {
    Vec theta(d);
    for (auto& v : theta) v = -2.0 + 0.2 * rng.uniform();
    for (std::size_t c = 0; c < d; ++c) X(i, c) = theta[c];
    const Vec o = fn(theta);
    y0[i] = o[0];
    y1[i] = o[1];
  }
  std::vector<gp::GpRegressor> models;
  models.emplace_back(gp::make_kernel("rbf", 1.0), 1e-4);
  models.back().set_data(X, y0);
  models.emplace_back(gp::make_kernel("rbf", 1.0), 1e-4);
  models.back().set_data(X, y1);

  const Vec lo(d, -2.0), hi(d, 2.0);
  AcquisitionConfig cfg;
  cfg.front_sampler.population_size = 16;
  cfg.front_sampler.generations = 10;
  const InformationGainAcquisition acq(models, lo, hi, cfg, rng);
  const double near_data = acq.value({-1.9, -1.9});
  const double far_away = acq.value({1.5, 1.5});
  EXPECT_GT(far_away, near_data);
}

TEST(Acquisition, BatchedValuesBitwiseMatchScalarValue) {
  // values() scores the sweep block by block, one r^2 sweep shared by
  // both models; the contract is bit-identical scores to per-candidate
  // value() calls —
  // at any block split and any thread count.  150 candidates spans
  // multiple kScoreBlock blocks plus a ragged tail.
  Rng rng(17);
  const std::size_t d = 3;
  auto models = fitted_models(two_anchor_problem(d), d, 22, rng);
  const Vec lo(d, -2.0), hi(d, 2.0);
  AcquisitionConfig cfg;
  cfg.front_sampler.population_size = 16;
  cfg.front_sampler.generations = 10;
  const InformationGainAcquisition acq(models, lo, hi, cfg, rng);

  std::vector<Vec> thetas(150, Vec(d));
  for (auto& t : thetas)
    for (auto& v : t) v = rng.uniform(-2.0, 2.0);

  const std::vector<double> batched = acq.values(thetas);
  ASSERT_EQ(batched.size(), thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const double ref = acq.value(thetas[i]);
    EXPECT_EQ(std::memcmp(&batched[i], &ref, sizeof(double)), 0)
        << "score diverged at candidate " << i;
  }

  exec::ThreadPool pool(4);
  const std::vector<double> threaded = acq.values(thetas, &pool);
  ASSERT_EQ(threaded.size(), batched.size());
  EXPECT_EQ(std::memcmp(threaded.data(), batched.data(),
                        batched.size() * sizeof(double)),
            0);

  EXPECT_TRUE(acq.values({}).empty());
  EXPECT_THROW(acq.values({Vec(d + 1, 0.0)}), Error);
}

TEST(Acquisition, SharedSweepMatchesPerModelPredict) {
  // values() and value() sweep each candidate's r^2 once per distinct
  // training set and hand it to every model fitted on that set.  The
  // scores must be bitwise the ones built from each model's own
  // predict_many, both when every model shares its inputs (PaRMIS) and
  // when they do not.  Kernels and hyperparameters differ across models,
  // so a model that read another model's tail would be caught too.
  const std::size_t d = 5, n = 30;
  const auto fn = two_anchor_problem(d);
  const auto fit = [&](const num::Matrix& X, const char* kernel,
                       double lengthscale, std::size_t objective) {
    Vec y(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      y[i] = fn(X.row(i))[objective % 2] + 0.1 * double(objective);
    }
    gp::GpRegressor m(gp::make_kernel(kernel, lengthscale), 1e-4);
    m.set_data(X, y);
    return m;
  };
  Rng rng(23);
  num::Matrix X(n, d);
  for (auto& v : X.data()) v = rng.uniform(-2.0, 2.0);
  num::Matrix other = X;  // one coordinate of the last point moved
  other(n - 1, 0) += 0.5;

  std::vector<std::vector<gp::GpRegressor>> cases(2);
  cases[0].push_back(fit(X, "rbf", 2.0, 0));
  cases[0].push_back(fit(X, "matern52", 3.0, 1));
  cases[0].push_back(fit(X, "rbf", 1.5, 2));
  cases[1].push_back(fit(X, "rbf", 2.0, 0));
  cases[1].push_back(fit(other, "matern52", 3.0, 1));
  cases[1].push_back(fit(X, "matern52", 2.5, 2));

  const Vec lo(d, -2.0), hi(d, 2.0);
  AcquisitionConfig cfg;
  cfg.num_mc_samples = 2;
  cfg.front_sampler.population_size = 16;
  cfg.front_sampler.generations = 6;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<gp::GpRegressor>& models = cases[c];
    const InformationGainAcquisition acq(models, lo, hi, cfg, rng);
    // 70 candidates: a full score block plus a ragged one.
    num::Matrix queries(70, d);
    for (auto& v : queries.data()) v = rng.uniform(-2.0, 2.0);
    std::vector<Vec> thetas;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      thetas.push_back(queries.row(q));
    }
    std::vector<gp::BatchPrediction> preds;
    for (const auto& m : models) preds.push_back(m.predict_many(queries));

    const std::vector<double> batched = acq.values(thetas);
    for (std::size_t q = 0; q < thetas.size(); ++q) {
      // Eq. 9 from each model's own prediction, as score() spells it.
      double want = 0.0;
      for (const Vec& minima : acq.front_minima()) {
        for (std::size_t j = 0; j < models.size(); ++j) {
          const double sigma =
              std::max(std::sqrt(preds[j].variance[q]), 1e-9);
          want += num::entropy_reduction_term((preds[j].mean[q] - minima[j]) /
                                              sigma);
        }
      }
      want /= double(acq.front_minima().size());
      const double one = acq.value(thetas[q]);
      EXPECT_EQ(std::memcmp(&batched[q], &want, sizeof(double)), 0)
          << "case " << c << ": values() diverged at candidate " << q;
      EXPECT_EQ(std::memcmp(&one, &want, sizeof(double)), 0)
          << "case " << c << ": value() diverged at candidate " << q;
    }
  }
}

TEST(Acquisition, RequiresFittedModels) {
  Rng rng(4);
  std::vector<gp::GpRegressor> models;
  models.emplace_back(gp::make_kernel("rbf"), 1e-4);
  models.emplace_back(gp::make_kernel("rbf"), 1e-4);
  const Vec lo(2, -1.0), hi(2, 1.0);
  EXPECT_THROW(
      InformationGainAcquisition(models, lo, hi, AcquisitionConfig{}, rng),
      Error);
}

// ----------------------------------------------------------------- parmis

ParmisConfig fast_config(std::uint64_t seed) {
  ParmisConfig cfg;
  cfg.num_initial = 8;
  cfg.max_iterations = 20;
  cfg.acq_pool_size = 48;
  cfg.acq_refine_steps = 4;
  cfg.acquisition.rff_features = 48;
  cfg.acquisition.front_sampler.population_size = 16;
  cfg.acquisition.front_sampler.generations = 10;
  cfg.hyperopt_interval = 10;
  cfg.hyperopt_candidates = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(Parmis, RunsAndRecordsAllEvaluations) {
  const std::size_t d = 4;
  Parmis opt(two_anchor_problem(d), d, 2, fast_config(5));
  const ParmisResult res = opt.run();
  EXPECT_EQ(res.thetas.size(), 28u);  // 8 initial + 20 iterations
  EXPECT_EQ(res.objectives.size(), 28u);
  EXPECT_EQ(res.phv_history.size(), 28u);
  EXPECT_FALSE(res.pareto_indices.empty());
}

TEST(Parmis, PhvHistoryIsMonotoneNonDecreasing) {
  const std::size_t d = 4;
  Parmis opt(two_anchor_problem(d), d, 2, fast_config(6));
  const ParmisResult res = opt.run();
  for (std::size_t i = 2; i < res.phv_history.size(); ++i) {
    EXPECT_GE(res.phv_history[i], res.phv_history[i - 1] - 1e-12);
  }
}

TEST(Parmis, SearchBeatsPureRandomDesign) {
  // Same total evaluation budget: PaRMIS's guided phase should reach a
  // PHV at least as good as uniform random sampling.
  const std::size_t d = 6;
  const auto fn = two_anchor_problem(d);

  // A fixed, generous reference point keeps the comparison fair (an
  // auto-derived reference from one run's early points would clip the
  // other run's spread arbitrarily).
  const Vec ref{12.0, 12.0};
  ParmisConfig cfg = fast_config(7);
  cfg.phv_reference = ref;
  Parmis opt(fn, d, 2, cfg);
  const ParmisResult guided = opt.run();

  Rng rng(7);
  std::vector<Vec> random_objs;
  for (std::size_t i = 0; i < guided.objectives.size(); ++i) {
    Vec theta(d);
    for (auto& v : theta) v = rng.uniform(-2.0, 2.0);
    random_objs.push_back(fn(theta));
  }
  const double phv_guided = moo::hypervolume(guided.objectives, ref);
  const double phv_random = moo::hypervolume(random_objs, ref);
  EXPECT_GE(phv_guided, phv_random * 0.98);
}

TEST(Parmis, ParetoIndicesAreConsistent) {
  const std::size_t d = 3;
  Parmis opt(two_anchor_problem(d), d, 2, fast_config(8));
  const ParmisResult res = opt.run();
  const auto expected = moo::non_dominated_indices(res.objectives);
  EXPECT_EQ(res.pareto_indices, expected);
  EXPECT_EQ(res.pareto_front().size(), expected.size());
  EXPECT_EQ(res.pareto_thetas().size(), expected.size());
}

TEST(Parmis, DeterministicForSeed) {
  const std::size_t d = 3;
  Parmis a(two_anchor_problem(d), d, 2, fast_config(9));
  Parmis b(two_anchor_problem(d), d, 2, fast_config(9));
  const ParmisResult ra = a.run();
  const ParmisResult rb = b.run();
  ASSERT_EQ(ra.objectives.size(), rb.objectives.size());
  for (std::size_t i = 0; i < ra.objectives.size(); ++i) {
    EXPECT_EQ(ra.objectives[i], rb.objectives[i]);
  }
}

TEST(Parmis, StepwiseApiMatchesBudget) {
  const std::size_t d = 3;
  Parmis opt(two_anchor_problem(d), d, 2, fast_config(10));
  EXPECT_FALSE(opt.initialized());
  EXPECT_THROW(opt.step(), Error);  // must initialize first
  opt.initialize();
  EXPECT_TRUE(opt.initialized());
  EXPECT_EQ(opt.evaluations(), 8u);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.evaluations(), 10u);
  EXPECT_THROW(opt.initialize(), Error);  // double init rejected
}

TEST(Parmis, FixedPhvReferenceIsUsed) {
  const std::size_t d = 3;
  ParmisConfig cfg = fast_config(11);
  cfg.phv_reference = Vec{20.0, 20.0};
  Parmis opt(two_anchor_problem(d), d, 2, cfg);
  const ParmisResult res = opt.run();
  EXPECT_EQ(res.phv_reference, (Vec{20.0, 20.0}));
}

TEST(Parmis, ValidatesConfigurationAndEvaluations) {
  EXPECT_THROW(Parmis(nullptr, 3, 2, fast_config(12)), Error);
  EXPECT_THROW(Parmis(two_anchor_problem(3), 0, 2, fast_config(13)), Error);
  EXPECT_THROW(Parmis(two_anchor_problem(3), 3, 1, fast_config(14)), Error);

  // Evaluation returning the wrong dimension is caught.
  Parmis opt([](const Vec&) { return Vec{1.0}; }, 3, 2, fast_config(15));
  EXPECT_THROW(opt.initialize(), Error);
  // Non-finite evaluations are caught.
  Parmis opt2([](const Vec&) { return Vec{std::nan(""), 1.0}; }, 3, 2,
              fast_config(16));
  EXPECT_THROW(opt2.initialize(), Error);
}

TEST(Parmis, RejectsHostileConfigAtConstruction) {
  // Each rule of parmis_config_error fails the constructor, before any
  // evaluation (acq_pool_size 0 would index an empty candidate pool).
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  using Edit = void (*)(ParmisConfig&);
  const std::vector<Edit> edits = {
      [](ParmisConfig& c) { c.kernel = "ard_rbf"; },
      [](ParmisConfig& c) { c.noise_variance = 0.0; },
      [](ParmisConfig& c) { c.noise_variance = kInf; },
      [](ParmisConfig& c) { c.theta_bound = kInf; },
      [](ParmisConfig& c) { c.perturbation_sd = -1.0; },
      [](ParmisConfig& c) { c.acq_pool_size = 0; },
      [](ParmisConfig& c) { c.num_initial = 1; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    ParmisConfig cfg = fast_config(40 + i);
    edits[i](cfg);
    EXPECT_FALSE(parmis_config_error(cfg).empty()) << "edit " << i;
    EXPECT_THROW(Parmis(two_anchor_problem(3), 3, 2, cfg), Error)
        << "edit " << i;
  }

  // A one-candidate pool with no perturbation still runs.
  ParmisConfig cfg = fast_config(50);
  cfg.acq_pool_size = 1;
  cfg.perturbation_sd = 0.0;
  cfg.max_iterations = 2;
  EXPECT_EQ(parmis_config_error(cfg), "");
  Parmis opt(two_anchor_problem(3), 3, 2, cfg);
  EXPECT_EQ(opt.run().thetas.size(), cfg.num_initial + 2);
}

TEST(Parmis, HyperoptCandidateCountIsNotNarrowed) {
  // hyperopt_candidates is a size_t and reaches the GP at that width: a
  // narrowing to int would wrap counts >= 2^31.
  static_assert(
      std::is_same_v<decltype(&gp::GpRegressor::optimize_hyperparameters),
                     void (gp::GpRegressor::*)(Rng&, std::size_t)>);
}

TEST(Parmis, Supports3Objectives) {
  const auto fn = [](const Vec& theta) {
    return Vec{theta[0] * theta[0], (theta[0] - 1) * (theta[0] - 1),
               (theta[1] - 0.5) * (theta[1] - 0.5)};
  };
  ParmisConfig cfg = fast_config(17);
  cfg.max_iterations = 8;
  Parmis opt(fn, 2, 3, cfg);
  const ParmisResult res = opt.run();
  EXPECT_EQ(res.objectives.front().size(), 3u);
  EXPECT_FALSE(res.pareto_indices.empty());
}

TEST(Parmis, MaternKernelWorks) {
  ParmisConfig cfg = fast_config(18);
  cfg.kernel = "matern52";
  cfg.max_iterations = 6;
  Parmis opt(two_anchor_problem(3), 3, 2, cfg);
  EXPECT_NO_THROW(opt.run());
}

// ------------------------------------------------------------ drm problem

TEST(DrmPolicyProblem, EvaluatesAndRebuildsPolicies) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  soc::Application app = apps::make_benchmark("qsort");
  app.epochs.resize(10);
  DrmPolicyProblem problem(platform, app,
                           runtime::time_energy_objectives());
  EXPECT_EQ(problem.num_objectives(), 2u);
  EXPECT_GT(problem.theta_dim(), 100u);
  EXPECT_FALSE(problem.is_global());

  auto fn = problem.evaluation_fn();
  Rng rng(19);
  Vec theta(problem.theta_dim());
  for (auto& v : theta) v = rng.uniform(-1.0, 1.0);
  const Vec o1 = fn(theta);
  const Vec o2 = fn(theta);
  ASSERT_EQ(o1.size(), 2u);
  EXPECT_DOUBLE_EQ(o1[0], o2[0]);  // deterministic platform
  EXPECT_GT(o1[0], 0.0);
  EXPECT_GT(o1[1], 0.0);

  // A materialized policy reproduces the same objectives.
  policy::MlpPolicy deployed = problem.make_policy(theta);
  runtime::Evaluator eval(platform);
  const Vec o3 =
      eval.evaluate(deployed, app, runtime::time_energy_objectives());
  EXPECT_DOUBLE_EQ(o3[0], o1[0]);
  EXPECT_DOUBLE_EQ(o3[1], o1[1]);

  const runtime::RunMetrics m = problem.metrics_for(theta, app);
  EXPECT_DOUBLE_EQ(m.time_s, o1[0]);
}

TEST(DrmPolicyProblem, AnchorThetasAreValidAndUseful) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  soc::Application app = apps::make_benchmark("qsort");
  app.epochs.resize(8);
  DrmPolicyProblem problem(platform, app,
                           runtime::time_energy_objectives());
  const auto anchors = problem.anchor_thetas();
  EXPECT_GE(anchors.size(), 10u);
  auto fn = problem.evaluation_fn();
  std::vector<Vec> objs;
  for (const auto& theta : anchors) {
    EXPECT_EQ(theta.size(), problem.theta_dim());
    objs.push_back(fn(theta));
    EXPECT_GT(objs.back()[0], 0.0);
  }
  // The anchor set must span a real trade-off: its non-dominated subset
  // has several members (max-perf vs min-power at least).
  EXPECT_GE(moo::non_dominated_indices(objs).size(), 3u);
}

TEST(Parmis, InitialThetasAreEvaluatedFirst) {
  const std::size_t d = 3;
  std::vector<Vec> seen;
  auto fn = [&seen](const Vec& theta) {
    seen.push_back(theta);
    return Vec{theta[0], -theta[0]};
  };
  ParmisConfig cfg = fast_config(30);
  cfg.num_initial = 6;
  cfg.max_iterations = 1;
  cfg.initial_thetas = {Vec{1.0, 1.0, 1.0}, Vec{-1.0, 0.0, 1.0}};
  Parmis opt(fn, d, 2, cfg);
  opt.initialize();
  ASSERT_GE(seen.size(), 6u);
  EXPECT_EQ(seen[0], (Vec{1.0, 1.0, 1.0}));
  EXPECT_EQ(seen[1], (Vec{-1.0, 0.0, 1.0}));
}

TEST(Parmis, InitialThetasClampedToBox) {
  const std::size_t d = 2;
  std::vector<Vec> seen;
  auto fn = [&seen](const Vec& theta) {
    seen.push_back(theta);
    return Vec{theta[0], theta[1]};
  };
  ParmisConfig cfg = fast_config(31);
  cfg.num_initial = 3;
  cfg.max_iterations = 1;
  cfg.theta_bound = 1.0;
  cfg.initial_thetas = {Vec{5.0, -5.0}};
  Parmis opt(fn, d, 2, cfg);
  opt.initialize();
  EXPECT_EQ(seen[0], (Vec{1.0, -1.0}));
  // Wrong dimension is rejected.
  ParmisConfig bad = cfg;
  bad.initial_thetas = {Vec{1.0}};
  Parmis opt2(fn, d, 2, bad);
  EXPECT_THROW(opt2.initialize(), Error);
}

TEST(Parmis, MoreInitialThetasThanNumInitialAllEvaluated) {
  const std::size_t d = 2;
  std::size_t count = 0;
  auto fn = [&count](const Vec& theta) {
    ++count;
    return Vec{theta[0], theta[1]};
  };
  ParmisConfig cfg = fast_config(32);
  cfg.num_initial = 2;
  cfg.max_iterations = 0;
  cfg.initial_thetas = {Vec{0.1, 0.1}, Vec{0.2, 0.2}, Vec{0.3, 0.3},
                        Vec{0.4, 0.4}};
  Parmis opt(fn, d, 2, cfg);
  opt.initialize();
  EXPECT_EQ(count, 4u);
}

TEST(DrmPolicyProblem, GlobalModeAggregates) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  std::vector<soc::Application> apps_list;
  for (const auto& name : {"qsort", "dijkstra"}) {
    soc::Application a = apps::make_benchmark(name);
    a.epochs.resize(8);
    apps_list.push_back(a);
  }
  DrmPolicyProblem problem(platform, apps_list,
                           runtime::time_energy_objectives());
  EXPECT_TRUE(problem.is_global());
  auto fn = problem.evaluation_fn();
  Rng rng(20);
  Vec theta(problem.theta_dim());
  for (auto& v : theta) v = rng.uniform(-1.0, 1.0);
  const Vec o = fn(theta);
  ASSERT_EQ(o.size(), 2u);
  // Normalized values: a reasonable policy lands within ~3x of reference.
  EXPECT_GT(o[0], 0.0);
  EXPECT_LT(o[0], 5.0);
}

}  // namespace
}  // namespace parmis::core
