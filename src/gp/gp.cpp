#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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
      Xt_(other.Xt_),
      r2_(other.r2_),
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
  Xt_ = other.Xt_;
  r2_ = other.r2_;
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
  // The cached r^2 rows stay current while the old inputs are, bit for
  // bit, the leading rows of the new ones.
  const std::size_t old_n = X_.rows();
  const bool grows =
      old_n > 0 && X.cols() == X_.cols() && X.rows() >= old_n &&
      std::memcmp(X.data().data(), X_.data().data(),
                  old_n * X_.cols() * sizeof(double)) == 0;
  X_ = std::move(X);
  Xt_ = X_.transposed();
  y_ = std::move(y);
  refit(grows ? old_n : 0);
}

num::Matrix GpRegressor::build_gram() const {
  // K = tail(r^2) above the diagonal, mirrored below: r2_ is symmetric
  // bit for bit, so each pair costs one tail evaluation.
  const std::size_t n = X_.rows();
  num::Matrix K(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    kernel_->covariance_from_r2(r2_.row_view(i).data() + i + 1, n - i - 1,
                                K.row_view(i).data() + i + 1);
    K(i, i) = kernel_->prior_variance() + noise_variance_;
    for (std::size_t j = i + 1; j < n; ++j) K(j, i) = K(i, j);
  }
  return K;
}

void GpRegressor::refit(std::size_t kept) {
  const std::size_t n = X_.rows();
  PARMIS_TRACE_SPAN_D("gp", "fit", "n=%zu;swept=%zu", n, n - kept);
  if (kept < n) {
    // Keep the first `kept` rows' block, sweep each new row against
    // every point, and mirror it into the kept rows' columns:
    // (a - b)^2 == (b - a)^2 bit for bit.
    num::Matrix r2(n, n);
    for (std::size_t i = 0; i < kept; ++i) {
      std::copy_n(r2_.row_view(i).data(), kept, r2.row_view(i).data());
    }
    for (std::size_t i = kept; i < n; ++i) {
      squared_distances(Xt_.data().data(), n, X_.row_view(i).data(),
                        X_.cols(), r2.row_view(i).data());
      for (std::size_t j = 0; j < kept; ++j) r2(j, i) = r2(i, j);
    }
    r2_ = std::move(r2);
  }
  if (n == 0) {
    r2_ = num::Matrix();
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
  const BatchPrediction p = predict_from_r2(query_r2(x.data(), 1, x.size()));
  return {p.mean[0], p.variance[0]};
}

BatchPrediction GpRegressor::predict_many(const num::Matrix& Xstar) const {
  PARMIS_TRACE_SPAN_D("gp", "predict_many", "n=%zu;q=%zu", X_.rows(),
                      Xstar.rows());
  return predict_from_r2(
      query_r2(Xstar.data().data(), Xstar.rows(), Xstar.cols()));
}

num::Matrix GpRegressor::query_r2(const double* queries, std::size_t q_count,
                                  std::size_t dim) const {
  const std::size_t n = X_.rows();
  num::Matrix r2(q_count, n);
  if (!has_data()) return r2;
  require(dim == X_.cols(), "GP predict: dimension mismatch");
  for (std::size_t q = 0; q < q_count; ++q) {
    squared_distances(Xt_.data().data(), n, queries + q * dim, dim,
                      r2.row_view(q).data());
  }
  return r2;
}

BatchPrediction GpRegressor::predict_from_r2(const num::Matrix& r2) const {
  // Without data: the prior.  Otherwise every entry is overwritten below.
  const std::size_t q_count = r2.rows();
  BatchPrediction out{num::Vec(q_count, 0.0),
                      num::Vec(q_count, kernel_->prior_variance())};
  if (!has_data() || q_count == 0) return out;
  const std::size_t n = X_.rows();
  require(r2.cols() == n, "GP predict: r^2 block width must equal size()");

  // Cross-covariance block kstar(i, q) = k(x*_q, x_i): the tail of each
  // query's r^2 row, scattered into column q so the multi-RHS solve
  // streams rows contiguously.
  num::Matrix kstar(n, q_count);
  num::AlignedBuffer row(n);
  for (std::size_t q = 0; q < q_count; ++q) {
    kernel_->covariance_from_r2(r2.row_view(q).data(), n, row.data());
    for (std::size_t i = 0; i < n; ++i) kstar(i, q) = row[i];
  }

  // Normalized means: mean_n[q] = dot(kstar_col_q, alpha), accumulated
  // over i in increasing order.
  num::AlignedBuffer mean_n(q_count);
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = alpha_[i];
    const double* krow = kstar.row_view(i).data();
    for (std::size_t q = 0; q < q_count; ++q) mean_n[q] += krow[q] * ai;
  }

  // var = k(x,x) - k*^T (K + noise I)^{-1} k*, via v = L^{-1} k*: all
  // forward substitutions in one blocked solve, done in place (kstar is
  // not needed once the means are accumulated), then the v^T v
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
    if (var_n < 1e-12) var_n = 1e-12;  // clamp tiny negative rounding
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

void GpRegressor::optimize_hyperparameters(Rng& rng,
                                           std::size_t n_candidates) {
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
  for (std::size_t i = 0; i < n_candidates; ++i) {
    const double l = l_center * std::exp(rng.uniform(-2.0, 2.0));
    const double sv = std::exp(rng.uniform(-2.0, 2.0));
    const double noise = std::exp(rng.uniform(std::log(1e-6), std::log(1e-1)));
    kernel_->set_hyperparameters(l, sv);
    noise_variance_ = noise;
    refit(X_.rows());
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
  refit(X_.rows());
}

}  // namespace parmis::gp
