// Covariance kernels for Gaussian process regression.
//
// PaRMIS models each design objective as an independent GP over the DRM
// policy parameter vector theta (paper Sec. IV-A).  The kernels here are
// isotropic and stationary: a covariance is a function of the squared
// distance r^2 = |a-b|^2 alone.  squared_distances is the one r^2 sweep
// and each kernel supplies only its tail r^2 -> k, so every covariance
// in the GP layer — Gram rows, single and batched predictions — is the
// same sweep followed by the same tail.  The sweep does not depend on
// the hyperparameters, so its output is kept and reused: GpRegressor
// caches its training r^2, and the acquisition sweeps each query once
// for every model that shares the training inputs.  Each kernel also
// exposes its spectral density sampler so that posterior *functions*
// can be drawn via random Fourier features (Rahimi & Recht), which the
// acquisition needs to sample Pareto fronts.
#ifndef PARMIS_GP_KERNEL_HPP
#define PARMIS_GP_KERNEL_HPP

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "numerics/vec.hpp"

namespace parmis::gp {

/// The r^2 sweep: out[j] = |x - point j|^2 for `count` points stored
/// TRANSPOSED — `points_t` is dim x count, element (i, j) at
/// points_t[i*count+j].  Each r^2 accumulates (p_i - x_i)^2 over i in
/// ascending order from 0.0 (the op sequence of num::squared_distance,
/// bit for bit, as (p - x)^2 == (x - p)^2), one contiguous, vectorizable
/// j-sweep per input dimension.
void squared_distances(const double* points_t, std::size_t count,
                       const double* x, std::size_t dim, double* out);

/// Isotropic covariance kernel k(a, b) = tail(|a-b|^2).
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two input points of equal dimension: the tail
  /// of num::squared_distance.  A convenience for callers outside the
  /// hot path; bitwise equal to the tail of the matching
  /// squared_distances entry.
  double value(const num::Vec& a, const num::Vec& b) const;

  /// The kernel's tail: out[j] = k at squared distance r2[j].  Each entry
  /// depends on r2[j] alone, so the result does not depend on how a
  /// caller blocks its calls.
  virtual void covariance_from_r2(const double* r2, std::size_t n,
                                  double* out) const = 0;

  /// k(x, x) — the prior variance at any point (stationary kernels).
  double prior_variance() const { return signal_variance_; }

  double lengthscale() const { return lengthscale_; }
  double signal_variance() const { return signal_variance_; }

  /// Updates hyperparameters; both must be positive.
  void set_hyperparameters(double lengthscale, double signal_variance);

  /// Draws one spectral frequency vector omega (dimension `dim`) from the
  /// kernel's normalized spectral density, already scaled by 1/lengthscale.
  /// cos(omega . x + b) features built from these draws approximate the
  /// kernel by Bochner's theorem.
  virtual num::Vec sample_spectral_frequency(Rng& rng,
                                             std::size_t dim) const = 0;

  /// Deep copy (kernels are value-like but used polymorphically).
  virtual std::unique_ptr<Kernel> clone() const = 0;

  /// Human-readable name ("rbf", "matern52") for logs and ablation tables.
  virtual std::string name() const = 0;

 protected:
  Kernel(double lengthscale, double signal_variance);

  double lengthscale_;
  double signal_variance_;
};

/// Squared-exponential (RBF) kernel:
///   k(a,b) = sv * exp(-0.5 * |a-b|^2 / l^2)
class RbfKernel final : public Kernel {
 public:
  explicit RbfKernel(double lengthscale = 1.0, double signal_variance = 1.0);

  void covariance_from_r2(const double* r2, std::size_t n,
                          double* out) const override;
  num::Vec sample_spectral_frequency(Rng& rng,
                                     std::size_t dim) const override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "rbf"; }
};

/// Matern-5/2 kernel:
///   k(a,b) = sv * (1 + z + z^2/3) * exp(-z),  z = sqrt(5) |a-b| / l
class Matern52Kernel final : public Kernel {
 public:
  explicit Matern52Kernel(double lengthscale = 1.0,
                          double signal_variance = 1.0);

  void covariance_from_r2(const double* r2, std::size_t n,
                          double* out) const override;
  num::Vec sample_spectral_frequency(Rng& rng,
                                     std::size_t dim) const override;
  std::unique_ptr<Kernel> clone() const override;
  std::string name() const override { return "matern52"; }
};

/// True for the names make_kernel builds ("rbf", "matern52").
bool is_kernel_name(const std::string& name);

/// Factory by name; throws parmis::Error for unknown names.
std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    double lengthscale = 1.0,
                                    double signal_variance = 1.0);

}  // namespace parmis::gp

#endif  // PARMIS_GP_KERNEL_HPP
