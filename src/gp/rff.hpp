// Posterior function sampling via random Fourier features (Rahimi-Recht).
//
// The PaRMIS acquisition (paper Sec. IV-B step 1) needs *functions*
// sampled from each objective's GP posterior so that NSGA-II can optimize
// them jointly and produce a sampled Pareto front O*_s.  Thompson-style
// function draws are obtained by:
//   1. approximating the kernel with M cosine features
//        phi_m(x) = sqrt(2 sv / M) cos(omega_m . x + b_m),
//      omega_m from the kernel's spectral density, b_m ~ U[0, 2 pi);
//   2. conditioning the Bayesian linear model f(x) = phi(x)^T w,
//      w ~ N(0, I) on the GP's training data (noise sigma_n^2), giving a
//      Gaussian posterior over w;
//   3. drawing one w from that posterior.  The resulting f is a cheap,
//      deterministic function that can be evaluated millions of times.
//
// Bit-equivalence contract: FeatureMap has one projection kernel, and
// every caller (SampledFunction, the training and query feature
// matrices) goes through it.  The kernel blocks over queries only: up
// to 32 per block, each block at the smallest of 4, 8, 16 and 32 lanes
// that holds it, transposed d x lanes.  It walks the columns in passes
// of a fixed width and keeps each feature's running sums in memory
// between passes.  Per (feature m, query x) pair it performs exactly
// the scalar sequence
//   acc = phase[m];  acc += omega[m][c] * x[c]  for c = 0, 1, ..., d-1
// (no fused multiply-add, no reassociation) followed by the caller's
// scalar std::cos epilogue.  Lane width, padding lanes and pass
// boundaries change which queries share a pass and where a sum is
// stored, never the operation order within one pair, so a query's
// result does not depend on how many other queries are evaluated with
// it or where its block starts — bitwise, including on hostile inputs
// (huge cos arguments, denormals, NaN).  The golden campaign digests
// depend on this; tests/gp_test.cpp and tests/moo_test.cpp enforce it.
#ifndef PARMIS_GP_RFF_HPP
#define PARMIS_GP_RFF_HPP

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vec.hpp"

namespace parmis::gp {

/// The Rahimi-Recht cosine feature map phi(x) = scale * cos(omega x +
/// phase) behind every posterior function draw.
struct FeatureMap {
  num::Matrix omega;   ///< M x d spectral frequencies
  num::Vec phase;      ///< M phases
  double scale = 1.0;  ///< sqrt(2 sv / M)

  /// Draws M = `num_features` features for inputs of dimension `dim`.
  /// RNG order per feature m: kernel spectral frequency, then phase.
  static FeatureMap draw(const Kernel& kernel, std::size_t dim,
                         std::size_t num_features, Rng& rng);

  std::size_t num_features() const { return omega.rows(); }
  std::size_t input_dim() const { return omega.cols(); }

  /// The feature matrix of the rows of X (rows x d): rows x M, entry
  /// (i, m) = scale * cos(projection of row i onto feature m).
  num::Matrix features(const num::Matrix& X) const;
};

/// One sampled posterior function f: R^d -> R (original target units):
///   f(x) = y_mean + y_scale * sum_m weights[m] * scale * cos(...).
class SampledFunction {
 public:
  SampledFunction(FeatureMap features, num::Vec weights, double y_mean,
                  double y_scale);

  /// Evaluates the sampled function at x (dimension must match the GP).
  /// A one-query eval_many: bitwise identical to it.
  double operator()(const num::Vec& x) const;

  /// Evaluates f at every column of `xt` (d x q, one query per column).
  /// out[q] is bitwise identical to (*this)(column q) for any q.
  num::Vec eval_many(const num::Matrix& xt) const;

  std::size_t input_dim() const { return features_.input_dim(); }
  std::size_t num_features() const { return features_.num_features(); }

 private:
  FeatureMap features_;
  num::Vec weights_;  // M posterior weights
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
};

/// Draws one function from the GP posterior.  The GP must be fitted
/// with data (throws otherwise).  `num_features` trades approximation
/// quality for speed; 128-256 is plenty for acquisition purposes.
SampledFunction sample_posterior_function(const GpRegressor& gp, Rng& rng,
                                          std::size_t num_features = 128);

}  // namespace parmis::gp

#endif  // PARMIS_GP_RFF_HPP
