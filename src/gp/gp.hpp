// Gaussian process regression with exact inference (Cholesky).
//
// One GpRegressor models one design objective Oi as a function of the
// flattened DRM-policy parameter vector theta (paper Sec. IV-A).  Targets
// are z-scored internally so kernel hyperparameter defaults are sane
// regardless of the objective's units (seconds vs joules vs IPS/W).
#ifndef PARMIS_GP_GP_HPP
#define PARMIS_GP_GP_HPP

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "gp/kernel.hpp"
#include "numerics/cholesky.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vec.hpp"

namespace parmis::gp {

/// Posterior prediction at a single input.
struct Prediction {
  double mean = 0.0;      ///< posterior mean, in original target units
  double variance = 0.0;  ///< posterior variance (>= 0), original units^2
  double stddev() const;
};

/// Posterior predictions at a block of inputs (row q of the query matrix
/// maps to mean[q] / variance[q]).
struct BatchPrediction {
  num::Vec mean;      ///< posterior means, original target units
  num::Vec variance;  ///< posterior variances (>= 0), original units^2
};

/// Exact GP regressor with i.i.d. Gaussian observation noise.
class GpRegressor {
 public:
  /// Takes ownership of the kernel.  `noise_variance` is expressed in
  /// *normalized* target units (targets are z-scored internally).
  explicit GpRegressor(std::unique_ptr<Kernel> kernel,
                       double noise_variance = 1e-4);

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Replaces the training set (rows of X are inputs) and refits.
  /// The training r^2 is cached: when the old inputs are bitwise the
  /// leading rows of X (same width), only the new rows are swept;
  /// anything else — fewer rows, another width, any changed bit, even
  /// -0.0 for 0.0 — sweeps every row.  Either way the fit is bitwise
  /// the fresh fit of (X, y).
  void set_data(num::Matrix X, num::Vec y);

  std::size_t size() const { return X_.rows(); }
  std::size_t input_dim() const { return X_.cols(); }
  bool has_data() const { return X_.rows() > 0; }

  /// Posterior mean and variance at x.  With no data, returns the prior.
  /// The q = 1 case of predict_many: one implementation serves both.
  Prediction predict(const num::Vec& x) const;

  /// Posterior prediction at every row of Xstar: query_r2 followed by
  /// predict_from_r2.
  ///
  /// BIT-EXACTNESS CONTRACT: mean[q] and variance[q] are bitwise equal
  /// to the textbook scalar loop — kstar[i] = k(x*, x_i) via
  /// num::squared_distance, mean = dot(kstar, alpha), v = L^-1 kstar,
  /// var = max(prior - dot(v, v), 1e-12), then de-normalization — and
  /// so is the Gram matrix behind alpha and L, however the training set
  /// grew into the r^2 cache.  Every r^2 comes from gp::squared_distances
  /// and every covariance is the kernel's tail of it.  gp_test keeps the
  /// loop as its oracle and pins both kernels against it bit for bit;
  /// every golden campaign digest in tests/golden_digest_test.cpp rests
  /// on it.
  BatchPrediction predict_many(const num::Matrix& Xstar) const;

  /// The r^2 block of `q_count` queries (row-major q x dim) against the
  /// training inputs: r2(q, i) = |x*_q - x_i|^2, one
  /// gp::squared_distances sweep per query over the cached transposed
  /// inputs.  It depends on the training inputs alone, so it serves
  /// every model whose inputs are bitwise the same.  q x 0 without data.
  num::Matrix query_r2(const double* queries, std::size_t q_count,
                       std::size_t dim) const;

  /// The one prediction body, on an r^2 block from query_r2 (of this
  /// model or of one with bitwise-equal inputs): the kernel's tail, then
  /// the one Cholesky factor reused across the block, with all forward
  /// substitutions collapsed into one blocked multi-RHS triangular solve
  /// (num::solve_lower_many_inplace).  Without data: the prior.
  BatchPrediction predict_from_r2(const num::Matrix& r2) const;

  /// Log marginal likelihood of the (normalized) targets under the
  /// current hyperparameters.  Requires at least one observation.
  double log_marginal_likelihood() const;

  /// Multi-start random search over (lengthscale, signal variance, noise
  /// variance) in log space, maximizing the log marginal likelihood.
  /// Keeps the best configuration found (including the incumbent).
  void optimize_hyperparameters(Rng& rng, std::size_t n_candidates = 32);

  const Kernel& kernel() const { return *kernel_; }
  double noise_variance() const { return noise_variance_; }

  /// Normalization constants applied to targets (for the RFF sampler).
  double target_mean() const { return y_mean_; }
  double target_scale() const { return y_scale_; }

  /// Training inputs / normalized targets (for the RFF sampler).
  const num::Matrix& train_inputs() const { return X_; }
  const num::Vec& normalized_targets() const { return yn_; }

 private:
  /// Brings r2_ up to X_ (its first `kept` rows are current), then
  /// rebuilds the factorization.
  void refit(std::size_t kept);
  num::Matrix build_gram() const;

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;

  num::Matrix X_;   // n x d training inputs
  num::Matrix Xt_;  // d x n, X_ transposed for the r^2 sweeps
  num::Matrix r2_;  // n x n, r2_(i, j) = |x_i - x_j|^2
  num::Vec y_;      // raw targets
  num::Vec yn_;     // z-scored targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<num::Cholesky> chol_;  // factor of K + noise*I
  num::Vec alpha_;                     // (K + noise*I)^{-1} yn
};

}  // namespace parmis::gp

#endif  // PARMIS_GP_GP_HPP
