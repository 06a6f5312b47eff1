// First-order optimizers for training policy networks (IL, RL baselines).
#ifndef PARMIS_ML_OPTIMIZER_HPP
#define PARMIS_ML_OPTIMIZER_HPP

#include <cstddef>

#include "numerics/vec.hpp"

namespace parmis::ml {

using num::Vec;

/// Plain SGD with optional momentum.
class Sgd {
 public:
  explicit Sgd(std::size_t num_params, double learning_rate = 1e-2,
               double momentum = 0.0);

  /// Applies one descent step: params -= lr * (momentum-filtered grad).
  void step(Vec& params, const Vec& grad);

  double learning_rate() const { return lr_; }

 private:
  double lr_;
  double momentum_;
  Vec velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction.
class Adam {
 public:
  explicit Adam(std::size_t num_params, double learning_rate = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  /// Applies one descent step in place.
  void step(Vec& params, const Vec& grad);

  double learning_rate() const { return lr_; }

  /// Resets the moment estimates (e.g. between DAgger rounds).
  void reset();

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long long t_ = 0;
  Vec m_;
  Vec v_;
};

/// Clips the gradient to a maximum L2 norm (stabilizes REINFORCE).
void clip_gradient_norm(Vec& grad, double max_norm);

}  // namespace parmis::ml

#endif  // PARMIS_ML_OPTIMIZER_HPP
