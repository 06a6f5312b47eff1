// Unit + statistical tests for src/gp: kernels, exact GP regression,
// random-Fourier-feature posterior function sampling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/rff.hpp"
#include "numerics/cholesky.hpp"

namespace parmis::gp {
namespace {

using num::Matrix;
using num::Vec;

// ---------------------------------------------------------------- kernel

TEST(Kernel, RbfKnownValues) {
  RbfKernel k(1.0, 2.0);
  EXPECT_DOUBLE_EQ(k.value({0, 0}, {0, 0}), 2.0);
  EXPECT_NEAR(k.value({0}, {1}), 2.0 * std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(k.prior_variance(), 2.0);
}

TEST(Kernel, Matern52KnownValues) {
  Matern52Kernel k(1.0, 1.0);
  EXPECT_DOUBLE_EQ(k.value({0}, {0}), 1.0);
  const double z = std::sqrt(5.0);
  EXPECT_NEAR(k.value({0}, {1}),
              (1.0 + z + z * z / 3.0) * std::exp(-z), 1e-12);
}

TEST(Kernel, SymmetryAndDecay) {
  for (const auto& name : {"rbf", "matern52"}) {
    const auto k = make_kernel(name, 0.7, 1.3);
    EXPECT_DOUBLE_EQ(k->value({1, 2}, {3, -1}), k->value({3, -1}, {1, 2}));
    EXPECT_GT(k->value({0, 0}, {0.1, 0.1}), k->value({0, 0}, {1, 1}));
    EXPECT_GT(k->value({0, 0}, {1, 1}), k->value({0, 0}, {3, 3}));
  }
}

TEST(Kernel, GramMatrixIsPositiveDefinite) {
  Rng rng(5);
  for (const auto& name : {"rbf", "matern52"}) {
    const auto k = make_kernel(name, 1.0, 1.0);
    const std::size_t n = 15, d = 3;
    std::vector<Vec> pts(n, Vec(d));
    for (auto& p : pts) {
      for (auto& v : p) v = rng.uniform(-2, 2);
    }
    Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        gram(i, j) = k->value(pts[i], pts[j]);
      }
    }
    gram.add_diagonal(1e-8);
    EXPECT_NO_THROW(num::Cholesky{gram}) << name;
  }
}

TEST(Kernel, HyperparameterValidation) {
  EXPECT_THROW(RbfKernel(0.0, 1.0), Error);
  EXPECT_THROW(RbfKernel(1.0, -1.0), Error);
  RbfKernel k(1.0, 1.0);
  EXPECT_THROW(k.set_hyperparameters(-1.0, 1.0), Error);
  k.set_hyperparameters(2.0, 3.0);
  EXPECT_DOUBLE_EQ(k.lengthscale(), 2.0);
  EXPECT_DOUBLE_EQ(k.signal_variance(), 3.0);
}

TEST(Kernel, CloneIsDeepAndEqual) {
  RbfKernel k(1.5, 0.5);
  const auto c = k.clone();
  EXPECT_DOUBLE_EQ(c->value({0}, {1}), k.value({0}, {1}));
  k.set_hyperparameters(3.0, 0.5);
  EXPECT_NE(c->value({0}, {1}), k.value({0}, {1}));
}

TEST(Kernel, FactoryRejectsUnknownName) {
  EXPECT_THROW(make_kernel("linear"), Error);
}

TEST(Kernel, RbfSpectralFrequenciesMatchTheory) {
  // omega ~ N(0, 1/l^2): check the sample variance.
  Rng rng(6);
  RbfKernel k(2.0, 1.0);
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Vec w = k.sample_spectral_frequency(rng, 1);
    sum2 += w[0] * w[0];
  }
  EXPECT_NEAR(sum2 / n, 1.0 / 4.0, 0.01);
}

TEST(Kernel, SpectralFrequencyDimension) {
  Rng rng(7);
  Matern52Kernel k(1.0, 1.0);
  EXPECT_EQ(k.sample_spectral_frequency(rng, 5).size(), 5u);
}

TEST(Kernel, ArdRbfAnisotropy) {
  // Lengthscale 0.1 in dim 0 and 10 in dim 1: distance along dim 0
  // decays covariance far faster than along dim 1.
  ArdRbfKernel k({0.1, 10.0}, 1.0);
  const double along0 = k.value({0, 0}, {0.5, 0});
  const double along1 = k.value({0, 0}, {0, 0.5});
  EXPECT_LT(along0, 1e-4);
  EXPECT_GT(along1, 0.99);
  EXPECT_DOUBLE_EQ(k.value({0, 0}, {0, 0}), 1.0);
}

TEST(Kernel, ArdMatchesIsotropicWhenUniform) {
  ArdRbfKernel ard({0.7, 0.7, 0.7}, 1.3);
  RbfKernel iso(0.7, 1.3);
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    Vec a = {rng.normal(), rng.normal(), rng.normal()};
    Vec b = {rng.normal(), rng.normal(), rng.normal()};
    EXPECT_NEAR(ard.value(a, b), iso.value(a, b), 1e-12);
  }
}

TEST(Kernel, ArdSpectralFrequenciesRespectScales) {
  ArdRbfKernel k({0.5, 5.0}, 1.0);
  Rng rng(22);
  double var0 = 0.0, var1 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Vec w = k.sample_spectral_frequency(rng, 2);
    var0 += w[0] * w[0];
    var1 += w[1] * w[1];
  }
  EXPECT_NEAR(var0 / n, 1.0 / 0.25, 0.1);   // 1/l^2 = 4
  EXPECT_NEAR(var1 / n, 1.0 / 25.0, 0.002);
}

TEST(Kernel, ArdCloneAndGpIntegration) {
  ArdRbfKernel k({1.0, 2.0}, 1.0);
  const auto c = k.clone();
  EXPECT_EQ(c->name(), "ard_rbf");
  EXPECT_DOUBLE_EQ(c->value({0, 0}, {1, 1}), k.value({0, 0}, {1, 1}));
  EXPECT_THROW(ArdRbfKernel({1.0, -1.0}), Error);
  // Full GP round trip with an anisotropic kernel.
  gp::GpRegressor gp(std::make_unique<ArdRbfKernel>(num::Vec{1.0, 3.0}),
                     1e-4);
  num::Matrix X(5, 2);
  Vec y(5);
  Rng rng(23);
  for (int i = 0; i < 5; ++i) {
    X(i, 0) = rng.uniform(-1, 1);
    X(i, 1) = rng.uniform(-1, 1);
    y[i] = X(i, 0);
  }
  gp.set_data(X, y);
  EXPECT_NEAR(gp.predict({X(0, 0), X(0, 1)}).mean, y[0], 0.1);
}

// -------------------------------------------------------------------- gp

Matrix grid_inputs(const Vec& xs) {
  Matrix X(xs.size(), 1);
  for (std::size_t i = 0; i < xs.size(); ++i) X(i, 0) = xs[i];
  return X;
}

TEST(Gp, PriorPredictionWithoutData) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 2.5));
  const Prediction p = gp.predict({0.3});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 2.5);
}

TEST(Gp, InterpolatesTrainingDataWithSmallNoise) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 1.0), 1e-8);
  const Vec xs = {-2, -1, 0, 1, 2};
  Vec ys;
  for (double x : xs) ys.push_back(std::sin(x));
  gp.set_data(grid_inputs(xs), ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict({xs[i]});
    EXPECT_NEAR(p.mean, ys[i], 1e-3);
    EXPECT_LT(p.stddev(), 0.05);
  }
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  GpRegressor gp(std::make_unique<RbfKernel>(0.5, 1.0), 1e-6);
  gp.set_data(grid_inputs({0.0}), {1.0});
  const double near = gp.predict({0.1}).variance;
  const double mid = gp.predict({1.0}).variance;
  const double far = gp.predict({5.0}).variance;
  EXPECT_LT(near, mid);
  EXPECT_LT(mid, far);
  // Far away the posterior reverts to the prior.
  EXPECT_NEAR(gp.predict({50.0}).mean, num::mean(Vec{1.0}), 1e-6);
}

TEST(Gp, PredictionBetweenPointsIsReasonable) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 1.0), 1e-6);
  gp.set_data(grid_inputs({0.0, 1.0}), {0.0, 1.0});
  const double mid = gp.predict({0.5}).mean;
  EXPECT_GT(mid, 0.2);
  EXPECT_LT(mid, 0.8);
}

TEST(Gp, AddObservationMatchesBatchFit) {
  GpRegressor inc(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  GpRegressor batch(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  const Vec xs = {-1.0, 0.2, 0.9, 2.0};
  const Vec ys = {0.5, -0.3, 1.2, 0.1};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    inc.add_observation({xs[i]}, ys[i]);
  }
  batch.set_data(grid_inputs(xs), ys);
  for (double q = -2.0; q <= 3.0; q += 0.5) {
    EXPECT_NEAR(inc.predict({q}).mean, batch.predict({q}).mean, 1e-10);
    EXPECT_NEAR(inc.predict({q}).variance, batch.predict({q}).variance,
                1e-10);
  }
}

TEST(Gp, TargetNormalizationMakesUnitsIrrelevant) {
  // Same data in seconds vs milliseconds must give proportional output.
  GpRegressor a(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  GpRegressor b(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  const Vec xs = {-1, 0, 1};
  a.set_data(grid_inputs(xs), {1.0, 2.0, 3.0});
  b.set_data(grid_inputs(xs), {1000.0, 2000.0, 3000.0});
  EXPECT_NEAR(b.predict({0.5}).mean, 1000.0 * a.predict({0.5}).mean, 1e-6);
  EXPECT_NEAR(b.predict({0.5}).stddev(), 1000.0 * a.predict({0.5}).stddev(),
              1e-6);
}

TEST(Gp, LogMarginalLikelihoodPrefersTrueLengthscale) {
  // Data drawn from a smooth function: very short lengthscales underfit
  // the marginal likelihood.
  Rng rng(8);
  const std::size_t n = 20;
  Vec xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(-3, 3);
    ys[i] = std::sin(xs[i]);
  }
  auto ll_for = [&](double lengthscale) {
    GpRegressor gp(std::make_unique<RbfKernel>(lengthscale, 1.0), 1e-4);
    gp.set_data(grid_inputs(xs), ys);
    return gp.log_marginal_likelihood();
  };
  EXPECT_GT(ll_for(1.0), ll_for(0.01));
  EXPECT_GT(ll_for(1.0), ll_for(100.0));
}

TEST(Gp, HyperparameterOptimizationImprovesLikelihood) {
  Rng rng(9);
  const std::size_t n = 25;
  Vec xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.uniform(-3, 3);
    ys[i] = std::cos(2.0 * xs[i]) + 0.05 * rng.normal();
  }
  GpRegressor gp(std::make_unique<RbfKernel>(10.0, 1.0), 1e-2);
  gp.set_data(grid_inputs(xs), ys);
  const double before = gp.log_marginal_likelihood();
  Rng opt_rng(10);
  gp.optimize_hyperparameters(opt_rng, 64);
  EXPECT_GE(gp.log_marginal_likelihood(), before);
}

TEST(Gp, CopyIsIndependent) {
  GpRegressor a(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  a.set_data(grid_inputs({0.0}), {1.0});
  GpRegressor b = a;
  b.add_observation({1.0}, 2.0);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NEAR(a.predict({0.0}).mean, 1.0, 1e-3);
}

TEST(Gp, DimensionMismatchThrows) {
  GpRegressor gp(std::make_unique<RbfKernel>());
  gp.set_data(grid_inputs({0.0}), {1.0});
  EXPECT_THROW(gp.predict({0.0, 1.0}), Error);
  EXPECT_THROW(gp.add_observation({0.0, 1.0}, 0.5), Error);
}

TEST(Gp, ConstantTargetsHandledGracefully) {
  GpRegressor gp(std::make_unique<RbfKernel>(), 1e-4);
  gp.set_data(grid_inputs({0, 1, 2}), {3.0, 3.0, 3.0});
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 1e-6);
}

// ------------------------------------------------------------------- rff

TEST(Rff, SampledFunctionsPassNearTrainingData) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  const Vec xs = {-2, -1, 0, 1, 2};
  Vec ys;
  for (double x : xs) ys.push_back(std::sin(x));
  gp.set_data(grid_inputs(xs), ys);

  Rng rng(11);
  for (int s = 0; s < 5; ++s) {
    const SampledFunction f = sample_posterior_function(gp, rng, 256);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_NEAR(f({xs[i]}), ys[i], 0.25) << "sample " << s;
    }
  }
}

TEST(Rff, SampleMeanApproximatesPosteriorMean) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 1.0), 1e-3);
  const Vec xs = {-1, 0, 1};
  const Vec ys = {1.0, 0.0, -1.0};
  gp.set_data(grid_inputs(xs), ys);

  Rng rng(12);
  const Vec query = {0.5};
  double sum = 0.0;
  const int s_count = 200;
  for (int s = 0; s < s_count; ++s) {
    sum += sample_posterior_function(gp, rng, 192)({0.5});
  }
  EXPECT_NEAR(sum / s_count, gp.predict(query).mean, 0.1);
}

TEST(Rff, SampleSpreadTracksPosteriorUncertainty) {
  GpRegressor gp(std::make_unique<RbfKernel>(0.6, 1.0), 1e-3);
  gp.set_data(grid_inputs({0.0}), {0.0});
  Rng rng(13);
  num::Vec at_data, far_away;
  for (int s = 0; s < 120; ++s) {
    const SampledFunction f = sample_posterior_function(gp, rng, 192);
    at_data.push_back(f({0.0}));
    far_away.push_back(f({4.0}));
  }
  EXPECT_LT(num::stddev(at_data), 0.2);
  EXPECT_GT(num::stddev(far_away), 0.5);
}

TEST(Rff, DeterministicGivenRngState) {
  GpRegressor gp(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  gp.set_data(grid_inputs({0.0, 1.0}), {0.5, -0.5});
  Rng r1(14), r2(14);
  const SampledFunction f1 = sample_posterior_function(gp, r1, 64);
  const SampledFunction f2 = sample_posterior_function(gp, r2, 64);
  for (double q = -1.0; q <= 2.0; q += 0.25) {
    EXPECT_DOUBLE_EQ(f1({q}), f2({q}));
  }
}

TEST(Rff, RequiresFittedGp) {
  GpRegressor gp(std::make_unique<RbfKernel>());
  Rng rng(15);
  EXPECT_THROW(sample_posterior_function(gp, rng, 64), Error);
}

TEST(Rff, FunctionDimensionsMatchGp) {
  GpRegressor gp(std::make_unique<RbfKernel>(), 1e-4);
  Matrix X(3, 2);
  X(0, 0) = 0;  X(0, 1) = 0;
  X(1, 0) = 1;  X(1, 1) = 0;
  X(2, 0) = 0;  X(2, 1) = 1;
  gp.set_data(X, {0.0, 1.0, -1.0});
  Rng rng(16);
  const SampledFunction f = sample_posterior_function(gp, rng, 32);
  EXPECT_EQ(f.input_dim(), 2u);
  EXPECT_EQ(f.num_features(), 32u);
  EXPECT_THROW(f({1.0}), Error);
}

// ----------------------------------------------------- batched prediction
//
// GpRegressor::predict_many carries a BIT-EQUIVALENCE contract with the
// scalar predict() (see src/gp/gp.hpp): below the RFF crossover, batched
// mean and variance must be bitwise identical to looping predict() over
// the same queries.  The golden campaign digests rest on this, so the
// comparisons here are exact bit comparisons, not EXPECT_NEAR.

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(double));
  std::memcpy(&ub, &b, sizeof(double));
  return ua == ub;
}

Matrix random_queries(std::size_t count, std::size_t dim, Rng& rng) {
  Matrix q(count, dim);
  for (std::size_t r = 0; r < count; ++r)
    for (std::size_t c = 0; c < dim; ++c) q(r, c) = rng.uniform(-2.0, 2.0);
  return q;
}

GpRegressor fitted_gp(std::unique_ptr<Kernel> kernel, std::size_t n,
                      std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix X(n, d);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.uniform(-2.0, 2.0);
      s += X(i, c);
    }
    y[i] = std::sin(s) + 0.05 * rng.normal();
  }
  GpRegressor gp(std::move(kernel), 1e-4);
  gp.set_data(X, y);
  return gp;
}

// Asserts the contract on one model + query block and returns the
// batch for further inspection.
BatchPrediction expect_bitwise_match(const GpRegressor& gp,
                                     const Matrix& queries) {
  const BatchPrediction batch = gp.predict_many(queries);
  EXPECT_EQ(batch.mean.size(), queries.rows());
  EXPECT_EQ(batch.variance.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const Prediction ref = gp.predict(queries.row(q));
    EXPECT_TRUE(same_bits(batch.mean[q], ref.mean))
        << "mean diverged at query " << q;
    EXPECT_TRUE(same_bits(batch.variance[q], ref.variance))
        << "variance diverged at query " << q;
  }
  return batch;
}

TEST(PredictMany, BitwiseMatchesScalarPredictAcrossKernels) {
  Rng rng(301);
  // 70 queries crosses the internal 64-wide chunk edge.
  const Matrix queries = random_queries(70, 5, rng);
  for (const auto& name : {"rbf", "matern52"}) {
    const GpRegressor gp = fitted_gp(make_kernel(name, 1.2, 0.8), 25, 5, 42);
    expect_bitwise_match(gp, queries);
  }
}

TEST(PredictMany, BitwiseMatchesScalarPredictArdKernel) {
  Rng rng(302);
  const Matrix queries = random_queries(33, 4, rng);
  Vec scales = {0.5, 1.0, 2.0, 4.0};
  const GpRegressor gp =
      fitted_gp(std::make_unique<ArdRbfKernel>(scales, 1.1), 18, 4, 7);
  expect_bitwise_match(gp, queries);
}

TEST(PredictMany, EmptyModelReturnsPriorExactly) {
  GpRegressor gp(make_kernel("rbf", 1.0, 1.7), 1e-4);
  Rng rng(1);
  const Matrix queries = random_queries(6, 3, rng);
  const BatchPrediction batch = gp.predict_many(queries);
  for (std::size_t q = 0; q < 6; ++q) {
    const Prediction ref = gp.predict(queries.row(q));
    EXPECT_TRUE(same_bits(batch.mean[q], ref.mean));
    EXPECT_TRUE(same_bits(batch.variance[q], ref.variance));
    EXPECT_DOUBLE_EQ(batch.mean[q], 0.0);
    EXPECT_DOUBLE_EQ(batch.variance[q], 1.7);
  }
}

TEST(PredictMany, SingleTrainingPoint) {
  Rng rng(9);
  const GpRegressor gp = fitted_gp(make_kernel("rbf", 1.0), 1, 2, 11);
  const Matrix queries = random_queries(5, 2, rng);
  expect_bitwise_match(gp, queries);
}

TEST(PredictMany, ClampedVarianceAtTrainingPoints) {
  // Queries sitting exactly on training inputs with tiny noise drive
  // the posterior variance into the 1e-12 clamp; the batched path must
  // clamp identically.
  Rng rng(13);
  Matrix X(4, 2);
  Vec y(4);
  for (std::size_t i = 0; i < 4; ++i) {
    X(i, 0) = double(i);
    X(i, 1) = -double(i);
    y[i] = double(i) * 0.5;
  }
  GpRegressor gp(make_kernel("rbf", 2.0), 1e-9);
  gp.set_data(X, y);
  const BatchPrediction batch = expect_bitwise_match(gp, X);
  // Sanity: the clamp actually engaged (normalized var floor 1e-12,
  // scaled by y_scale^2 < 1), i.e. variance is tiny but positive.
  for (double v : batch.variance) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1e-9);
  }
}

TEST(PredictMany, ConstantTargetsDegenerateZScore) {
  // Constant y makes stddev 0; the z-score falls back to scale 1.  The
  // batched path must reproduce the same degenerate arithmetic.
  Rng rng(15);
  Matrix X = random_queries(6, 3, rng);
  GpRegressor gp(make_kernel("matern52", 1.0), 1e-4);
  gp.set_data(X, Vec(6, 3.25));
  const Matrix queries = random_queries(10, 3, rng);
  expect_bitwise_match(gp, queries);
}

TEST(PredictMany, ZeroQueriesAndDimensionMismatch) {
  const GpRegressor gp = fitted_gp(make_kernel("rbf", 1.0), 8, 3, 21);
  const BatchPrediction empty = gp.predict_many(Matrix(0, 3));
  EXPECT_TRUE(empty.mean.empty());
  EXPECT_TRUE(empty.variance.empty());
  EXPECT_THROW(gp.predict_many(Matrix(4, 2)), Error);
}

// ------------------------------------------- blocked RFF projection
//
// FeatureMap carries the same BIT-EQUIVALENCE contract (src/gp/rff.hpp):
// every query through the blocked projection must match the scalar
// loop SampledFunction::operator() ran before blocking, whatever the
// block count, tail width, or input.

// The pre-blocking scalar loop: f(x) and, through `phi`, the feature
// row scale * cos(phase[m] + omega[m] . x).
double scalar_rff(const FeatureMap& map, const Vec& weights, double y_mean,
                  double y_scale, std::span<const double> x, Vec& phi) {
  phi.assign(map.num_features(), 0.0);
  double f = 0.0;
  for (std::size_t m = 0; m < map.num_features(); ++m) {
    double dotp = map.phase[m];
    for (std::size_t c = 0; c < x.size(); ++c) dotp += map.omega(m, c) * x[c];
    phi[m] = map.scale * std::cos(dotp);
    f += weights[m] * map.scale * std::cos(dotp);
  }
  return y_mean + y_scale * f;
}

TEST(Rff, EvalManyBitwiseMatchesScalar) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denormal = 4.9e-322;
  const std::size_t m_count = 24;
  for (const std::size_t d : {std::size_t{1}, std::size_t{445}}) {
    Rng rng(900 + d);
    FeatureMap map;
    map.omega = random_queries(m_count, d, rng);
    map.phase.resize(m_count);
    for (auto& p : map.phase) p = rng.uniform(0.0, 6.28);
    map.scale = 0.37;
    // Hostile features: denormal and huge frequencies, a huge phase.
    map.omega(1, 0) = denormal;
    map.omega(2, d - 1) = 1e200;
    map.phase[3] = 1e22;
    Vec weights(m_count);
    for (auto& w : weights) w = rng.normal();
    const SampledFunction f(map, weights, 0.7, 1.9);

    for (const std::size_t q_count : {1, 31, 32, 33, 65, 200}) {
      Matrix X = random_queries(q_count, d, rng);
      // Hostile queries spread over blocks and tails: a huge cos
      // argument, denormals, NaN, and inf (inf * denormal frequency).
      for (std::size_t q = 0; q < q_count; q += 7) {
        const double hostile[] = {1e300, denormal, nan, inf, -1e-310};
        X(q, (q / 7) % d) = hostile[(q / 7) % 5];
      }
      const Vec many = f.eval_many(X.transposed());
      const Matrix phi = map.features(X);
      ASSERT_EQ(many.size(), q_count);
      ASSERT_EQ(phi.rows(), q_count);
      ASSERT_EQ(phi.cols(), m_count);
      Vec ref_phi;
      for (std::size_t q = 0; q < q_count; ++q) {
        const double ref =
            scalar_rff(map, weights, 0.7, 1.9, X.row_view(q), ref_phi);
        EXPECT_TRUE(same_bits(many[q], ref))
            << "d=" << d << " q_count=" << q_count << " query " << q;
        EXPECT_TRUE(same_bits(f(X.row(q)), ref))
            << "d=" << d << " q_count=" << q_count << " query " << q;
        for (std::size_t m = 0; m < m_count; ++m) {
          EXPECT_TRUE(same_bits(phi(q, m), ref_phi[m]))
              << "d=" << d << " q_count=" << q_count << " query " << q
              << " feature " << m;
        }
      }
    }
  }
}

TEST(Rff, FeatureMapDrawOrderPinned) {
  // Per feature: the kernel's spectral frequency, then the phase — the
  // order sample_posterior_function has always drawn in, so the same
  // seed yields the same map (and RNG stream) as ever.
  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<RbfKernel>(0.8, 1.3));
  kernels.push_back(std::make_unique<Matern52Kernel>(1.2, 0.6));
  for (const auto& kernel : kernels) {
    Rng drawn(77), replay(77);
    const FeatureMap map = FeatureMap::draw(*kernel, 3, 10, drawn);
    ASSERT_EQ(map.num_features(), 10u);
    ASSERT_EQ(map.input_dim(), 3u);
    EXPECT_TRUE(same_bits(
        map.scale, std::sqrt(2.0 * kernel->signal_variance() / 10.0)));
    for (std::size_t m = 0; m < 10; ++m) {
      const Vec omega = kernel->sample_spectral_frequency(replay, 3);
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(same_bits(map.omega(m, c), omega[c]))
            << kernel->name() << " feature " << m;
      }
      EXPECT_TRUE(same_bits(map.phase[m],
                            replay.uniform(0.0, 2.0 * std::numbers::pi)))
          << kernel->name() << " feature " << m;
    }
    EXPECT_EQ(drawn.next_u64(), replay.next_u64()) << kernel->name();
  }
}

// ------------------------------------------------ batched kernel rows

TEST(Kernel, ValueRowTransposedMatchesPairwise) {
  Rng rng(71);
  const std::size_t dim = 6, count = 70;  // crosses the 64-chunk edge
  const Matrix queries = random_queries(count, dim, rng);
  const Matrix qt = queries.transposed();
  Vec x(dim);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);

  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<RbfKernel>(0.9, 1.3));
  kernels.push_back(std::make_unique<Matern52Kernel>(1.1, 0.7));
  kernels.push_back(std::make_unique<ArdRbfKernel>(
      Vec{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}, 1.2));
  for (const auto& k : kernels) {
    Vec out(count);
    k->value_row_transposed(qt.data().data(), count, x.data(), dim,
                            out.data());
    for (std::size_t q = 0; q < count; ++q) {
      EXPECT_TRUE(same_bits(out[q], k->value(queries.row(q), x)))
          << k->name() << " diverged at query " << q;
    }
  }
}

TEST(Kernel, ValueRowTransposedDefaultFallback) {
  // A custom kernel that only overrides the pairwise form exercises the
  // base-class gather fallback.
  class PairwiseOnlyKernel final : public Kernel {
   public:
    PairwiseOnlyKernel() : Kernel(1.0, 1.0) {}
    using Kernel::value;
    double value(const double* a, const double* b,
                 std::size_t dim) const override {
      double s = 0.0;
      for (std::size_t i = 0; i < dim; ++i) s += a[i] * b[i];
      return 1.0 / (1.0 + std::abs(s));
    }
    num::Vec sample_spectral_frequency(Rng&, std::size_t dim) const override {
      return num::Vec(dim, 0.0);
    }
    std::unique_ptr<Kernel> clone() const override {
      return std::make_unique<PairwiseOnlyKernel>();
    }
    std::string name() const override { return "pairwise_only"; }
  };

  Rng rng(81);
  const std::size_t dim = 4, count = 9;
  const Matrix queries = random_queries(count, dim, rng);
  const Matrix qt = queries.transposed();
  Vec x(dim, 0.5);
  const PairwiseOnlyKernel k;
  Vec out(count);
  k.value_row_transposed(qt.data().data(), count, x.data(), dim, out.data());
  for (std::size_t q = 0; q < count; ++q) {
    EXPECT_TRUE(same_bits(out[q], k.value(queries.row(q), x)));
  }
}

}  // namespace
}  // namespace parmis::gp
