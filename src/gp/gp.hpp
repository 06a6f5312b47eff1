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
  void set_data(num::Matrix X, num::Vec y);

  /// Appends one observation and refits (O(n^3); fine for n <= ~1000).
  void add_observation(const num::Vec& x, double y);

  std::size_t size() const { return X_.rows(); }
  std::size_t input_dim() const { return X_.cols(); }
  bool has_data() const { return X_.rows() > 0; }

  /// Posterior mean and variance at x.  With no data, returns the prior.
  /// This is the scalar REFERENCE implementation: the batched path below
  /// is defined (and tested) as bit-identical to it.
  Prediction predict(const num::Vec& x) const;

  /// Batched posterior prediction at every row of Xstar, reusing the one
  /// Cholesky factorization across the whole sweep: the cross-covariance
  /// block K* is assembled in a single pass and all N forward
  /// substitutions collapse into one blocked multi-RHS triangular solve
  /// (num::solve_lower_many).
  ///
  /// BIT-EQUIVALENCE CONTRACT: mean[q] and variance[q] are bitwise
  /// identical to predict(row q) — same reduction orders, same
  /// clamping, same normalization arithmetic.  The contract extends
  /// through every layer underneath: Kernel::value_row_transposed must
  /// reproduce the pairwise value() bit for bit, and
  /// num::solve_lower_many must match per-column solve_lower (both
  /// property-tested).  Every golden campaign digest pinned in
  /// tests/golden_digest_test.cpp runs through this path and depends on
  /// it.
  BatchPrediction predict_many(const num::Matrix& Xstar) const;

  /// Log marginal likelihood of the (normalized) targets under the
  /// current hyperparameters.  Requires at least one observation.
  double log_marginal_likelihood() const;

  /// Multi-start random search over (lengthscale, signal variance, noise
  /// variance) in log space, maximizing the log marginal likelihood.
  /// Keeps the best configuration found (including the incumbent).
  void optimize_hyperparameters(Rng& rng, int n_candidates = 32);

  const Kernel& kernel() const { return *kernel_; }
  double noise_variance() const { return noise_variance_; }

  /// Normalization constants applied to targets (for the RFF sampler).
  double target_mean() const { return y_mean_; }
  double target_scale() const { return y_scale_; }

  /// Training inputs / normalized targets (for the RFF sampler).
  const num::Matrix& train_inputs() const { return X_; }
  const num::Vec& normalized_targets() const { return yn_; }

 private:
  void refit();
  num::Matrix build_gram() const;

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;

  num::Matrix X_;   // n x d training inputs
  num::Vec y_;      // raw targets
  num::Vec yn_;     // z-scored targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<num::Cholesky> chol_;  // factor of K + noise*I
  num::Vec alpha_;                     // (K + noise*I)^{-1} yn
};

}  // namespace parmis::gp

#endif  // PARMIS_GP_GP_HPP
