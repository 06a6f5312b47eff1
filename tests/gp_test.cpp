// Unit + statistical tests for src/gp: kernels, exact GP regression,
// random-Fourier-feature posterior function sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>
#include <span>
#include <string>
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

TEST(Gp, GrowBySetDataMatchesBatchFit) {
  // Growing the training set one point at a time through set_data ends
  // at exactly the batch fit: nothing of an earlier fit leaks through.
  GpRegressor inc(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  GpRegressor batch(std::make_unique<RbfKernel>(1.0, 1.0), 1e-4);
  const Vec xs = {-1.0, 0.2, 0.9, 2.0};
  const Vec ys = {0.5, -0.3, 1.2, 0.1};
  for (std::size_t i = 1; i <= xs.size(); ++i) {
    inc.set_data(grid_inputs(Vec(xs.begin(), xs.begin() + i)),
                 Vec(ys.begin(), ys.begin() + i));
    EXPECT_EQ(inc.size(), i);
  }
  batch.set_data(grid_inputs(xs), ys);
  for (double q = -2.0; q <= 3.0; q += 0.5) {
    EXPECT_EQ(inc.predict({q}).mean, batch.predict({q}).mean);
    EXPECT_EQ(inc.predict({q}).variance, batch.predict({q}).variance);
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
  b.set_data(grid_inputs({0.0, 1.0}), {1.0, 2.0});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NEAR(a.predict({0.0}).mean, 1.0, 1e-3);
}

TEST(Gp, DimensionMismatchThrows) {
  GpRegressor gp(std::make_unique<RbfKernel>());
  gp.set_data(grid_inputs({0.0}), {1.0});
  EXPECT_THROW(gp.predict({0.0, 1.0}), Error);
  EXPECT_THROW(gp.predict_many(Matrix(2, 2)), Error);
  EXPECT_THROW(gp.set_data(grid_inputs({0.0, 1.0}), {0.5}), Error);
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

// ------------------------------------------------------ the scalar oracle
//
// GpRegressor has one inference path: gp::squared_distances sweeps
// every training and query r^2, the kernel's tail turns each into a
// covariance, and predict() is the q = 1 case of predict_many (see
// src/gp/gp.hpp).  Its contract is that every bit equals the textbook
// scalar loops it replaced, kept here as the oracle: a pairwise Gram
// over num::squared_distance, its own Cholesky, and a per-query
// predict().  The oracle reads only the regressor's public accessors,
// and spells out the kernel formulas itself.  The golden campaign digests rest on this, so every
// comparison is a bit comparison, not EXPECT_NEAR.

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(double));
  std::memcpy(&ub, &b, sizeof(double));
  return ua == ub;
}

double oracle_kernel(const Kernel& k, const double* a, const double* b,
                     std::size_t dim) {
  const double r2 = num::squared_distance(a, b, dim);
  if (k.name() == "rbf") {
    return k.signal_variance() *
           std::exp(-0.5 * r2 / (k.lengthscale() * k.lengthscale()));
  }
  const double r = std::sqrt(r2);
  const double z = std::sqrt(5.0) * r / k.lengthscale();
  return k.signal_variance() * (1.0 + z + z * z / 3.0) * std::exp(-z);
}

struct Oracle {
  Matrix gram;
  std::optional<num::Cholesky> chol;
  Vec alpha;
  double log_ml = 0.0;

  explicit Oracle(const GpRegressor& gp) {
    const Matrix& X = gp.train_inputs();
    const std::size_t n = X.rows(), d = X.cols();
    gram = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      gram(i, i) = gp.kernel().prior_variance() + gp.noise_variance();
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = oracle_kernel(gp.kernel(), X.row_view(i).data(),
                                       X.row_view(j).data(), d);
        gram(i, j) = v;
        gram(j, i) = v;
      }
    }
    chol.emplace(gram);
    alpha = chol->solve(gp.normalized_targets());
    log_ml = -0.5 * num::dot(gp.normalized_targets(), alpha) -
             0.5 * chol->log_det() -
             0.5 * double(n) * std::log(2.0 * std::numbers::pi);
  }

  Prediction predict(const GpRegressor& gp, const Vec& x) const {
    const Matrix& X = gp.train_inputs();
    Vec kstar(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      kstar[i] = oracle_kernel(gp.kernel(), x.data(), X.row_view(i).data(),
                               x.size());
    }
    const double mean_n = num::dot(kstar, alpha);
    const Vec v = chol->solve_lower(kstar);
    double var_n = gp.kernel().prior_variance() - num::dot(v, v);
    if (var_n < 1e-12) var_n = 1e-12;
    Prediction out;
    out.mean = gp.target_mean() + gp.target_scale() * mean_n;
    out.variance = gp.target_scale() * gp.target_scale() * var_n;
    return out;
  }
};

Matrix random_queries(std::size_t count, std::size_t dim, Rng& rng) {
  Matrix q(count, dim);
  for (std::size_t r = 0; r < count; ++r)
    for (std::size_t c = 0; c < dim; ++c) q(r, c) = rng.uniform(-2.0, 2.0);
  return q;
}

Vec smooth_targets(const Matrix& X, Rng& rng) {
  Vec y(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < X.cols(); ++c) s += X(i, c);
    y[i] = std::sin(s) + 0.05 * rng.normal();
  }
  return y;
}

GpRegressor fitted_gp(std::unique_ptr<Kernel> kernel, std::size_t n,
                      std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Matrix X = random_queries(n, d, rng);
  const Vec y = smooth_targets(X, rng);
  GpRegressor gp(std::move(kernel), 1e-4);
  gp.set_data(X, y);
  return gp;
}

// The sweep and the tail: out[j] = k(x, point j) over transposed points.
Vec swept_covariance(const Kernel& k, const Matrix& points_t, const double* x) {
  const std::size_t count = points_t.cols();
  Vec r2(count), out(count);
  squared_distances(points_t.data().data(), count, x, points_t.rows(),
                    r2.data());
  k.covariance_from_r2(r2.data(), count, out.data());
  return out;
}

// Pins one fitted model against the oracle: the Gram matrix (each row
// through the sweep and the tail, the whole through the log marginal
// likelihood, which reads the regressor's own Cholesky and alpha), and
// predict() and predict_many() on `queries`.  Returns the batch.
BatchPrediction expect_matches_oracle(const GpRegressor& gp,
                                      const Matrix& queries,
                                      const std::string& label) {
  const Oracle oracle(gp);
  const Matrix& X = gp.train_inputs();
  const std::size_t n = X.rows();
  const Matrix Xt = X.transposed();
  for (std::size_t i = 0; i < n; ++i) {
    const Vec row = swept_covariance(gp.kernel(), Xt, X.row_view(i).data());
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      EXPECT_TRUE(same_bits(row[j], oracle.gram(i, j)))
          << label << ": Gram (" << i << ", " << j << ")";
    }
  }
  EXPECT_TRUE(same_bits(gp.log_marginal_likelihood(), oracle.log_ml))
      << label << ": log marginal likelihood";

  const BatchPrediction batch = gp.predict_many(queries);
  EXPECT_EQ(batch.mean.size(), queries.rows());
  EXPECT_EQ(batch.variance.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const Prediction ref = oracle.predict(gp, queries.row(q));
    const Prediction one = gp.predict(queries.row(q));
    EXPECT_TRUE(same_bits(batch.mean[q], ref.mean))
        << label << ": predict_many mean at query " << q;
    EXPECT_TRUE(same_bits(batch.variance[q], ref.variance))
        << label << ": predict_many variance at query " << q;
    EXPECT_TRUE(same_bits(one.mean, ref.mean))
        << label << ": predict mean at query " << q;
    EXPECT_TRUE(same_bits(one.variance, ref.variance))
        << label << ": predict variance at query " << q;
  }
  return batch;
}

TEST(PredictMany, BitwiseMatchesOracleAcrossKernels) {
  Rng rng(301);
  // 70 queries and 70 training points both cross the sweep's 64 chunk.
  const Matrix queries = random_queries(70, 5, rng);
  for (const auto& name : {"rbf", "matern52"}) {
    for (const std::size_t n : {std::size_t{25}, std::size_t{70}}) {
      const GpRegressor gp =
          fitted_gp(make_kernel(name, 1.2, 0.8), n, 5, 42 + n);
      expect_matches_oracle(gp, queries,
                            std::string(name) + " n=" + std::to_string(n));
    }
  }
}

TEST(PredictMany, BitwiseMatchesOracleOnHostileInputs) {
  const double denormal = 4.9e-322;
  for (const auto& name : {"rbf", "matern52"}) {
    for (const std::size_t d : {std::size_t{1}, std::size_t{895}}) {
      for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                                  std::size_t{65}}) {
        const std::string label = std::string(name) +
                                  " d=" + std::to_string(d) +
                                  " n=" + std::to_string(n);
        Rng rng(700 + d + n);
        Matrix X = random_queries(n, d, rng);
        // Denormal and huge training coordinates, and duplicate points.
        X(0, 0) = denormal;
        if (n > 2) {
          X(1, d - 1) = 1e150;
          for (std::size_t c = 0; c < d; ++c) X(n - 1, c) = X(0, c);
          X(n / 2, 0) = -1e-310;
        }
        const Vec y = smooth_targets(X, rng);
        GpRegressor gp(make_kernel(name, 0.5 * std::sqrt(double(d)), 1.3),
                       1e-4);
        gp.set_data(X, y);

        for (const std::size_t q_count : {std::size_t{1}, std::size_t{63},
                                          std::size_t{64}, std::size_t{65},
                                          std::size_t{130}}) {
          Matrix queries = random_queries(q_count, d, rng);
          // Hostile queries: on a training point, denormal, huge.
          for (std::size_t c = 0; c < d; ++c) queries(0, c) = X(0, c);
          for (std::size_t q = 1; q < q_count; q += 7) {
            const double hostile[] = {denormal, 1e150, -1e150, -1e-310};
            queries(q, (q / 7) % d) = hostile[(q / 7) % 4];
          }
          expect_matches_oracle(gp, queries,
                                label + " q=" + std::to_string(q_count));
        }
      }
    }
  }
}

TEST(PredictMany, EmptyModelReturnsPriorExactly) {
  GpRegressor gp(make_kernel("rbf", 1.0, 1.7), 1e-4);
  Rng rng(1);
  const Matrix queries = random_queries(6, 3, rng);
  const BatchPrediction batch = gp.predict_many(queries);
  for (std::size_t q = 0; q < 6; ++q) {
    const Prediction one = gp.predict(queries.row(q));
    EXPECT_TRUE(same_bits(batch.mean[q], one.mean));
    EXPECT_TRUE(same_bits(batch.variance[q], one.variance));
    EXPECT_DOUBLE_EQ(batch.mean[q], 0.0);
    EXPECT_DOUBLE_EQ(batch.variance[q], 1.7);
  }
}

TEST(PredictMany, SingleTrainingPoint) {
  Rng rng(9);
  const GpRegressor gp = fitted_gp(make_kernel("rbf", 1.0), 1, 2, 11);
  const Matrix queries = random_queries(5, 2, rng);
  expect_matches_oracle(gp, queries, "n=1");
}

TEST(PredictMany, ClampedVarianceAtTrainingPoints) {
  // Queries sitting exactly on training inputs with tiny noise drive
  // the posterior variance into the 1e-12 clamp; the one path must
  // clamp as the oracle does.
  Matrix X(4, 2);
  Vec y(4);
  for (std::size_t i = 0; i < 4; ++i) {
    X(i, 0) = double(i);
    X(i, 1) = -double(i);
    y[i] = double(i) * 0.5;
  }
  GpRegressor gp(make_kernel("rbf", 2.0), 1e-9);
  gp.set_data(X, y);
  const BatchPrediction batch = expect_matches_oracle(gp, X, "clamp");
  // Sanity: the clamp actually engaged (normalized var floor 1e-12,
  // scaled by y_scale^2 < 1), i.e. variance is tiny but positive.
  for (double v : batch.variance) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1e-9);
  }
}

TEST(PredictMany, ConstantTargetsDegenerateZScore) {
  // Constant y makes stddev 0; the z-score falls back to scale 1, in
  // the regressor and the oracle alike.
  Rng rng(15);
  Matrix X = random_queries(6, 3, rng);
  GpRegressor gp(make_kernel("matern52", 1.0), 1e-4);
  gp.set_data(X, Vec(6, 3.25));
  const Matrix queries = random_queries(10, 3, rng);
  expect_matches_oracle(gp, queries, "constant targets");
}

TEST(PredictMany, ZeroQueriesAndDimensionMismatch) {
  const GpRegressor gp = fitted_gp(make_kernel("rbf", 1.0), 8, 3, 21);
  const BatchPrediction empty = gp.predict_many(Matrix(0, 3));
  EXPECT_TRUE(empty.mean.empty());
  EXPECT_TRUE(empty.variance.empty());
  EXPECT_THROW(gp.predict_many(Matrix(4, 2)), Error);
}

// ------------------------------------------------------ the r^2 cache
//
// set_data keeps the cached r^2 of a training set the new one extends
// bit for bit and sweeps only the new rows; anything else sweeps all of
// them.  Whichever way a fit went through the cache, it must be bitwise
// the fresh fit of the same data at the same hyperparameters.

void expect_same_as_fresh_fit(const GpRegressor& gp, const Matrix& X,
                              const Vec& y, const Matrix& queries,
                              const std::string& label) {
  GpRegressor fresh(gp.kernel().clone(), gp.noise_variance());
  fresh.set_data(X, y);
  ASSERT_EQ(gp.size(), X.rows()) << label;
  EXPECT_TRUE(same_bits(gp.log_marginal_likelihood(),
                        fresh.log_marginal_likelihood()))
      << label << ": log marginal likelihood";
  const BatchPrediction got = gp.predict_many(queries);
  const BatchPrediction want = fresh.predict_many(queries);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_TRUE(same_bits(got.mean[q], want.mean[q]))
        << label << ": mean at query " << q;
    EXPECT_TRUE(same_bits(got.variance[q], want.variance[q]))
        << label << ": variance at query " << q;
  }
}

Matrix leading_rows(const Matrix& X, std::size_t n) {
  Matrix out(n, X.cols());
  std::copy_n(X.data().begin(), n * X.cols(), out.data().begin());
  return out;
}

Vec leading(const Vec& y, std::size_t n) {
  return Vec(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n));
}

double flip_bit(double v, int bit) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(double));
  u ^= std::uint64_t{1} << bit;
  std::memcpy(&v, &u, sizeof(double));
  return v;
}

TEST(Gp, R2CacheGrowthMatchesFreshFit) {
  // PaRMIS's pattern at xu3 width: one row more per set_data, with
  // hyperparameter refits (which reuse the cache whole) along the way.
  const std::size_t d = 445, max_n = 112;
  for (const auto& name : {"rbf", "matern52"}) {
    Rng rng(900);
    const Matrix X = random_queries(max_n, d, rng);
    const Vec y = smooth_targets(X, rng);
    const Matrix queries = random_queries(5, d, rng);
    GpRegressor gp(make_kernel(name, 0.5 * std::sqrt(double(d))), 1e-4);
    Rng hyper_rng(901);
    for (std::size_t n = 2; n <= max_n; ++n) {
      gp.set_data(leading_rows(X, n), leading(y, n));
      if (n % 25 == 0) gp.optimize_hyperparameters(hyper_rng, 8);
      expect_same_as_fresh_fit(gp, leading_rows(X, n), leading(y, n),
                               queries,
                               std::string(name) + " n=" + std::to_string(n));
    }
  }
}

TEST(Gp, R2CacheHostileUpdatesMatchFreshFit) {
  const std::size_t d = 7, n = 70;  // crosses the sweep's 64 chunk
  for (const auto& name : {"rbf", "matern52"}) {
    Rng rng(910);
    Matrix X = random_queries(n, d, rng);
    X(2, 3) = 0.0;
    const Vec y = smooth_targets(X, rng);
    const Matrix queries = random_queries(6, d, rng);
    GpRegressor gp(make_kernel(name, 1.5), 1e-3);
    const auto step = [&](const Matrix& Xs, const Vec& ys,
                          const std::string& what) {
      gp.set_data(Xs, ys);
      expect_same_as_fresh_fit(gp, Xs, ys, queries,
                               std::string(name) + ": " + what);
    };

    // n -> 0 -> n, then grow by one.
    step(leading_rows(X, 10), leading(y, 10), "first fit");
    gp.set_data(Matrix(0, d), Vec{});
    EXPECT_FALSE(gp.has_data()) << name;
    step(leading_rows(X, 40), leading(y, 40), "0 -> 40");
    step(leading_rows(X, 41), leading(y, 41), "grow to 41");

    // One flipped bit in an old row: every row is swept again.
    Matrix flipped = leading_rows(X, 42);
    flipped(5, 1) = flip_bit(flipped(5, 1), 51);
    step(flipped, leading(y, 42), "flipped bit in row 5");
    step(leading_rows(X, 43), leading(y, 43), "flip undone, grow to 43");

    // -0.0 for 0.0: a changed bit, though no r^2 changes.
    Matrix negzero = leading_rows(X, 44);
    negzero(2, 3) = -0.0;
    step(negzero, leading(y, 44), "-0.0 in row 2");
    step(leading_rows(X, 45), leading(y, 45), "+0.0 back, grow to 45");

    // A shrink, then growth from the shorter set.
    step(leading_rows(X, 30), leading(y, 30), "shrink to 30");
    step(leading_rows(X, 31), leading(y, 31), "grow to 31");

    // A NaN row fails the factorization in both fits; the regressor then
    // recovers on the next set_data.
    Matrix with_nan = leading_rows(X, 32);
    with_nan(31, 4) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(gp.set_data(with_nan, leading(y, 32)), Error) << name;
    GpRegressor fresh(gp.kernel().clone(), gp.noise_variance());
    EXPECT_THROW(fresh.set_data(with_nan, leading(y, 32)), Error) << name;
    step(leading_rows(X, 32), leading(y, 32), "NaN row replaced");

    // A width change: one more input column.
    Matrix wider(33, d + 1);
    for (std::size_t r = 0; r < 33; ++r) {
      for (std::size_t c = 0; c < d; ++c) wider(r, c) = X(r, c);
      wider(r, d) = 0.25 * double(r);
    }
    const Matrix wider_queries = random_queries(6, d + 1, rng);
    gp.set_data(leading_rows(wider, 32), leading(y, 32));
    expect_same_as_fresh_fit(gp, leading_rows(wider, 32), leading(y, 32),
                             wider_queries, std::string(name) + ": wider");
    gp.set_data(wider, leading(y, 33));
    expect_same_as_fresh_fit(gp, wider, leading(y, 33), wider_queries,
                             std::string(name) + ": wider, grown");

    // Back to width d, then a copy and an assigned regressor carry the
    // cache and keep growing on their own.
    step(leading_rows(X, 60), leading(y, 60), "width d again");
    GpRegressor copy = gp;
    GpRegressor assigned(make_kernel("rbf", 9.0), 0.5);
    assigned = gp;
    for (std::size_t m = 61; m <= n; ++m) {
      copy.set_data(leading_rows(X, m), leading(y, m));
      assigned.set_data(leading_rows(X, m), leading(y, m));
      expect_same_as_fresh_fit(copy, leading_rows(X, m), leading(y, m),
                               queries, std::string(name) + ": copy");
      expect_same_as_fresh_fit(assigned, leading_rows(X, m), leading(y, m),
                               queries, std::string(name) + ": assigned");
    }
    expect_same_as_fresh_fit(gp, leading_rows(X, 60), leading(y, 60),
                             queries, std::string(name) + ": original");
  }
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
  // Every query count up to two blocks plus a tail runs each lane
  // width (4, 8, 16, 32) with and without padding lanes; d = 127, 128
  // and 129 put the last column just before, on and after a column-pass
  // boundary.
  std::vector<std::size_t> q_counts;
  for (std::size_t q = 1; q <= 33; ++q) q_counts.push_back(q);
  q_counts.insert(q_counts.end(), {64, 65, 200});
  for (const std::size_t d : {1, 127, 128, 129, 445, 895}) {
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

    for (const std::size_t q_count : q_counts) {
      Matrix X = random_queries(q_count, d, rng);
      // Hostile queries spread over blocks, tails and the first and
      // last column passes: a huge cos argument, denormals, NaN, and inf
      // (inf * denormal frequency).
      for (std::size_t q = 0; q < q_count; q += 7) {
        const double hostile[] = {1e300, denormal, nan, inf, -1e-310};
        X(q, (q / 7) % d) = hostile[(q / 7) % 5];
        X(q, d - 1 - (q / 7) % d) = hostile[(q / 7 + 2) % 5];
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

// ------------------------------------------------------ the r^2 sweep

TEST(Kernel, CrossCovarianceMatchesPairwise) {
  Rng rng(71);
  const std::size_t dim = 6, count = 70;  // crosses the 64-chunk edge
  const Matrix points = random_queries(count, dim, rng);
  const Matrix pt = points.transposed();
  Vec x(dim);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);

  std::vector<std::unique_ptr<Kernel>> kernels;
  kernels.push_back(std::make_unique<RbfKernel>(0.9, 1.3));
  kernels.push_back(std::make_unique<Matern52Kernel>(1.1, 0.7));
  for (const auto& k : kernels) {
    const Vec out = swept_covariance(*k, pt, x.data());
    for (std::size_t j = 0; j < count; ++j) {
      EXPECT_TRUE(same_bits(out[j], k->value(x, points.row(j))))
          << k->name() << " diverged at point " << j;
      EXPECT_TRUE(same_bits(out[j], oracle_kernel(*k, x.data(),
                                                  points.row_view(j).data(),
                                                  dim)))
          << k->name() << " diverged from the oracle at point " << j;
    }
  }
}

}  // namespace
}  // namespace parmis::gp
