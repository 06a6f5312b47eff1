#include "gp/kernel.hpp"

#include <algorithm>
#include <cmath>

namespace parmis::gp {

namespace {
// Chunk edge of the r^2 sweep: a stack buffer of accumulators that
// stays in L1 across all `dim` passes and aliases no input.
constexpr std::size_t kChunk = 64;
}  // namespace

void squared_distances(const double* points_t, std::size_t count,
                       const double* x, std::size_t dim, double* out) {
  double r2[kChunk];
  for (std::size_t jb = 0; jb < count; jb += kChunk) {
    const std::size_t cn = std::min(kChunk, count - jb);
    std::fill_n(r2, cn, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      // Each j is independent (no reduction reordering), so the
      // compiler vectorizes freely.
      const double* row = points_t + i * count + jb;
      const double xi = x[i];
      for (std::size_t j = 0; j < cn; ++j) {
        const double d = row[j] - xi;
        r2[j] += d * d;
      }
    }
    std::copy_n(r2, cn, out + jb);
  }
}

Kernel::Kernel(double lengthscale, double signal_variance)
    : lengthscale_(lengthscale), signal_variance_(signal_variance) {
  require(lengthscale > 0.0, "kernel lengthscale must be positive");
  require(signal_variance > 0.0, "kernel signal variance must be positive");
}

void Kernel::set_hyperparameters(double lengthscale, double signal_variance) {
  require(lengthscale > 0.0, "kernel lengthscale must be positive");
  require(signal_variance > 0.0, "kernel signal variance must be positive");
  lengthscale_ = lengthscale;
  signal_variance_ = signal_variance;
}

double Kernel::value(const num::Vec& a, const num::Vec& b) const {
  const double r2 = num::squared_distance(a, b);
  double out = 0.0;
  covariance_from_r2(&r2, 1, &out);
  return out;
}

RbfKernel::RbfKernel(double lengthscale, double signal_variance)
    : Kernel(lengthscale, signal_variance) {}

void RbfKernel::covariance_from_r2(const double* r2, std::size_t n,
                                   double* out) const {
  const double ll = lengthscale_ * lengthscale_;
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = signal_variance_ * std::exp(-0.5 * r2[j] / ll);
  }
}

num::Vec RbfKernel::sample_spectral_frequency(Rng& rng,
                                              std::size_t dim) const {
  // RBF spectral density is Gaussian: omega ~ N(0, 1/l^2 I).
  num::Vec omega(dim);
  for (auto& w : omega) w = rng.normal() / lengthscale_;
  return omega;
}

std::unique_ptr<Kernel> RbfKernel::clone() const {
  return std::make_unique<RbfKernel>(lengthscale_, signal_variance_);
}

Matern52Kernel::Matern52Kernel(double lengthscale, double signal_variance)
    : Kernel(lengthscale, signal_variance) {}

void Matern52Kernel::covariance_from_r2(const double* r2, std::size_t n,
                                        double* out) const {
  for (std::size_t j = 0; j < n; ++j) {
    const double r = std::sqrt(r2[j]);
    const double z = std::sqrt(5.0) * r / lengthscale_;
    out[j] = signal_variance_ * (1.0 + z + z * z / 3.0) * std::exp(-z);
  }
}

num::Vec Matern52Kernel::sample_spectral_frequency(Rng& rng,
                                                   std::size_t dim) const {
  // Matern-nu spectral density is a multivariate Student-t with 2*nu = 5
  // degrees of freedom: omega = z * sqrt(2 nu / chi2_{2 nu}) / l.
  constexpr double two_nu = 5.0;
  // chi^2 with 5 dof as the sum of 5 squared standard normals.
  double chi2 = 0.0;
  for (int i = 0; i < 5; ++i) {
    const double z = rng.normal();
    chi2 += z * z;
  }
  if (chi2 < 1e-12) chi2 = 1e-12;  // avoid a divide-by-zero tail event
  const double mix = std::sqrt(two_nu / chi2);
  num::Vec omega(dim);
  for (auto& w : omega) w = rng.normal() * mix / lengthscale_;
  return omega;
}

std::unique_ptr<Kernel> Matern52Kernel::clone() const {
  return std::make_unique<Matern52Kernel>(lengthscale_, signal_variance_);
}

bool is_kernel_name(const std::string& name) {
  return name == "rbf" || name == "matern52";
}

std::unique_ptr<Kernel> make_kernel(const std::string& name,
                                    double lengthscale,
                                    double signal_variance) {
  if (name == "rbf") {
    return std::make_unique<RbfKernel>(lengthscale, signal_variance);
  }
  require(name == "matern52", "unknown kernel name: " + name);
  return std::make_unique<Matern52Kernel>(lengthscale, signal_variance);
}

}  // namespace parmis::gp
