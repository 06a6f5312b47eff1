#include "ml/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace parmis::ml {

Sgd::Sgd(std::size_t num_params, double learning_rate, double momentum)
    : lr_(learning_rate), momentum_(momentum), velocity_(num_params, 0.0) {
  require(learning_rate > 0.0, "sgd: learning rate must be positive");
  require(momentum >= 0.0 && momentum < 1.0, "sgd: momentum in [0, 1)");
}

void Sgd::step(Vec& params, const Vec& grad) {
  require(params.size() == velocity_.size(), "sgd: param size mismatch");
  require(grad.size() == velocity_.size(), "sgd: grad size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    velocity_[i] = momentum_ * velocity_[i] + grad[i];
    params[i] -= lr_ * velocity_[i];
  }
}

Adam::Adam(std::size_t num_params, double learning_rate, double beta1,
           double beta2, double epsilon)
    : lr_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      eps_(epsilon),
      m_(num_params, 0.0),
      v_(num_params, 0.0) {
  require(learning_rate > 0.0, "adam: learning rate must be positive");
  require(beta1 >= 0.0 && beta1 < 1.0, "adam: beta1 in [0, 1)");
  require(beta2 >= 0.0 && beta2 < 1.0, "adam: beta2 in [0, 1)");
  require(epsilon > 0.0, "adam: epsilon must be positive");
}

void Adam::step(Vec& params, const Vec& grad) {
  require(params.size() == m_.size(), "adam: param size mismatch");
  require(grad.size() == m_.size(), "adam: grad size mismatch");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grad[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grad[i] * grad[i];
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    params[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

void Adam::reset() {
  t_ = 0;
  std::fill(m_.begin(), m_.end(), 0.0);
  std::fill(v_.begin(), v_.end(), 0.0);
}

void clip_gradient_norm(Vec& grad, double max_norm) {
  require(max_norm > 0.0, "clip_gradient_norm: max_norm must be positive");
  const double norm = num::norm2(grad);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (double& g : grad) g *= scale;
  }
}

}  // namespace parmis::ml
