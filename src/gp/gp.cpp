#include "gp/gp.hpp"

#include <cmath>
#include <numbers>

#include "numerics/batch.hpp"
#include "obs/obs.hpp"

namespace parmis::gp {

double Prediction::stddev() const { return std::sqrt(variance); }

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
  require(kernel_ != nullptr, "GpRegressor requires a kernel");
  require(noise_variance_ > 0.0, "noise variance must be positive");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      noise_variance_(other.noise_variance_),
      X_(other.X_),
      y_(other.y_),
      yn_(other.yn_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      chol_(other.chol_),
      alpha_(other.alpha_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->clone();
  noise_variance_ = other.noise_variance_;
  X_ = other.X_;
  y_ = other.y_;
  yn_ = other.yn_;
  y_mean_ = other.y_mean_;
  y_scale_ = other.y_scale_;
  chol_ = other.chol_;
  alpha_ = other.alpha_;
  return *this;
}

void GpRegressor::set_data(num::Matrix X, num::Vec y) {
  require(X.rows() == y.size(), "GP set_data: X rows must match y size");
  X_ = std::move(X);
  y_ = std::move(y);
  refit();
}

void GpRegressor::add_observation(const num::Vec& x, double y) {
  if (X_.rows() == 0) {
    X_ = num::Matrix(1, x.size());
    for (std::size_t c = 0; c < x.size(); ++c) X_(0, c) = x[c];
    y_ = {y};
  } else {
    require(x.size() == X_.cols(), "GP add_observation: dim mismatch");
    num::Matrix grown(X_.rows() + 1, X_.cols());
    for (std::size_t r = 0; r < X_.rows(); ++r) {
      for (std::size_t c = 0; c < X_.cols(); ++c) grown(r, c) = X_(r, c);
    }
    for (std::size_t c = 0; c < X_.cols(); ++c) grown(X_.rows(), c) = x[c];
    X_ = std::move(grown);
    y_.push_back(y);
  }
  refit();
}

num::Matrix GpRegressor::build_gram() const {
  const std::size_t n = X_.rows();
  const std::size_t d = X_.cols();
  num::Matrix K(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = X_.row_view(i).data();
    K(i, i) = kernel_->prior_variance() + noise_variance_;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = kernel_->value(xi, X_.row_view(j).data(), d);
      K(i, j) = v;
      K(j, i) = v;
    }
  }
  return K;
}

void GpRegressor::refit() {
  PARMIS_TRACE_SPAN_D("gp", "fit", "n=%zu", X_.rows());
  const std::size_t n = X_.rows();
  if (n == 0) {
    chol_.reset();
    alpha_.clear();
    return;
  }
  // z-score targets; degenerate (constant) targets keep scale 1.
  y_mean_ = num::mean(y_);
  const double sd = num::stddev(y_);
  y_scale_ = sd > 1e-12 ? sd : 1.0;
  yn_.resize(n);
  for (std::size_t i = 0; i < n; ++i) yn_[i] = (y_[i] - y_mean_) / y_scale_;

  chol_.emplace(build_gram());
  alpha_ = chol_->solve(yn_);
}

Prediction GpRegressor::predict(const num::Vec& x) const {
  Prediction out;
  if (!has_data()) {
    out.mean = 0.0;
    out.variance = kernel_->prior_variance();
    return out;
  }
  require(x.size() == X_.cols(), "GP predict: dimension mismatch");
  const std::size_t n = X_.rows();
  num::Vec kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel_->value(x, X_.row(i));

  const double mean_n = num::dot(kstar, alpha_);
  // var = k(x,x) - k*^T (K + noise I)^{-1} k*, via v = L^{-1} k*.
  const num::Vec v = chol_->solve_lower(kstar);
  double var_n = kernel_->prior_variance() - num::dot(v, v);
  if (var_n < 1e-12) var_n = 1e-12;  // clamp tiny negative rounding

  out.mean = y_mean_ + y_scale_ * mean_n;
  out.variance = y_scale_ * y_scale_ * var_n;
  return out;
}

BatchPrediction GpRegressor::predict_many(const num::Matrix& Xstar) const {
  PARMIS_TRACE_SPAN_D("gp", "predict_many", "n=%zu;q=%zu", X_.rows(),
                      Xstar.rows());
  const std::size_t q_count = Xstar.rows();
  BatchPrediction out;
  if (!has_data()) {
    // Prior, exactly as predict() returns it.
    out.mean.assign(q_count, 0.0);
    out.variance.assign(q_count, kernel_->prior_variance());
    return out;
  }
  require(Xstar.cols() == X_.cols(), "GP predict_many: dimension mismatch");
  out.mean.assign(q_count, 0.0);
  out.variance.assign(q_count, 0.0);
  if (q_count == 0) return out;

  const std::size_t n = X_.rows();
  const std::size_t d = X_.cols();
  // Cross-covariance block, one pass: kstar(i, q) = k(x*_q, x_i).  Each
  // column q is exactly the kstar vector the scalar path builds, laid
  // out so the multi-RHS solve streams rows contiguously.  The query
  // block is transposed once so value_row_transposed evaluates one
  // training row against the whole block per virtual call with
  // contiguous per-dimension sweeps — the per-pair op sequence of
  // value() is preserved (see the kernel contract).
  const num::Matrix Xstar_t = Xstar.transposed();
  const double* qdata = Xstar_t.data().data();
  num::Matrix kstar(n, q_count);
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = X_.row_view(i).data();
    kernel_->value_row_transposed(qdata, q_count, xi, d,
                                  kstar.row_view(i).data());
  }

  // Normalized means: mean_n[q] = dot(kstar_col_q, alpha), accumulated
  // over i in increasing order — the same reduction order as the scalar
  // path's num::dot, hence bitwise equal.
  num::AlignedBuffer mean_n(q_count);
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = alpha_[i];
    const double* krow = kstar.row_view(i).data();
    for (std::size_t q = 0; q < q_count; ++q) mean_n[q] += krow[q] * ai;
  }

  // All N forward substitutions in one blocked solve (column q is
  // bitwise equal to solve_lower(kstar_col_q)), done in place — kstar
  // is not needed once the means are accumulated — then the v^T v
  // reduction, again over i in increasing order.
  chol_->solve_lower_many_inplace(kstar);
  num::AlignedBuffer vtv(q_count);
  for (std::size_t i = 0; i < n; ++i) {
    const double* vrow = kstar.row_view(i).data();
    for (std::size_t q = 0; q < q_count; ++q) vtv[q] += vrow[q] * vrow[q];
  }

  const double prior = kernel_->prior_variance();
  for (std::size_t q = 0; q < q_count; ++q) {
    double var_n = prior - vtv[q];
    if (var_n < 1e-12) var_n = 1e-12;  // same clamp as predict()
    out.mean[q] = y_mean_ + y_scale_ * mean_n[q];
    out.variance[q] = y_scale_ * y_scale_ * var_n;
  }
  return out;
}

double GpRegressor::log_marginal_likelihood() const {
  require(has_data(), "log_marginal_likelihood requires data");
  const auto n = static_cast<double>(X_.rows());
  return -0.5 * num::dot(yn_, alpha_) - 0.5 * chol_->log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::optimize_hyperparameters(Rng& rng, int n_candidates) {
  PARMIS_TRACE_SPAN("gp", "hyperopt");
  require(has_data(), "optimize_hyperparameters requires data");
  double best_ll = log_marginal_likelihood();
  double best_l = kernel_->lengthscale();
  double best_sv = kernel_->signal_variance();
  double best_noise = noise_variance_;

  // Lengthscale search is centred on the sqrt(d) heuristic because theta
  // vectors live in a d-dimensional box and pairwise distances
  // concentrate around sqrt(d).
  const double l_center =
      std::sqrt(static_cast<double>(std::max<std::size_t>(X_.cols(), 1)));
  for (int i = 0; i < n_candidates; ++i) {
    const double l = l_center * std::exp(rng.uniform(-2.0, 2.0));
    const double sv = std::exp(rng.uniform(-2.0, 2.0));
    const double noise = std::exp(rng.uniform(std::log(1e-6), std::log(1e-1)));
    kernel_->set_hyperparameters(l, sv);
    noise_variance_ = noise;
    refit();
    const double ll = log_marginal_likelihood();
    if (ll > best_ll) {
      best_ll = ll;
      best_l = l;
      best_sv = sv;
      best_noise = noise;
    }
  }
  kernel_->set_hyperparameters(best_l, best_sv);
  noise_variance_ = best_noise;
  refit();
}

}  // namespace parmis::gp
