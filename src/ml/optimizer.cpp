#include "ml/optimizer.hpp"

#include <cmath>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

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
  const double b1 = beta1_, b2 = beta2_;
  const double c1 = 1.0 - beta1_, c2 = 1.0 - beta2_;
  double* p = params.data();
  double* m = m_.data();
  double* v = v_.data();
  const double* g = grad.data();
  const std::size_t n = params.size();
  std::size_t i = 0;
#ifdef __SSE2__
  // Two parameters per instruction.  Each lane runs the scalar tail's
  // operations in the same order, and SSE2's add, mul, div and sqrt
  // round exactly as the scalar ones do, so the bits do not depend on
  // which path an element takes.  (std::sqrt's errno branch is what
  // keeps the compiler from packing the scalar loop itself.)
  const __m128d vb1 = _mm_set1_pd(b1), vb2 = _mm_set1_pd(b2);
  const __m128d vc1 = _mm_set1_pd(c1), vc2 = _mm_set1_pd(c2);
  const __m128d vbc1 = _mm_set1_pd(bc1), vbc2 = _mm_set1_pd(bc2);
  const __m128d vlr = _mm_set1_pd(lr_), veps = _mm_set1_pd(eps_);
  for (; i + 2 <= n; i += 2) {
    const __m128d gi = _mm_loadu_pd(g + i);
    const __m128d mi = _mm_add_pd(_mm_mul_pd(vb1, _mm_loadu_pd(m + i)),
                                  _mm_mul_pd(vc1, gi));
    const __m128d vi =
        _mm_add_pd(_mm_mul_pd(vb2, _mm_loadu_pd(v + i)),
                   _mm_mul_pd(_mm_mul_pd(vc2, gi), gi));
    _mm_storeu_pd(m + i, mi);
    _mm_storeu_pd(v + i, vi);
    const __m128d mhat = _mm_div_pd(mi, vbc1);
    const __m128d vhat = _mm_div_pd(vi, vbc2);
    const __m128d delta =
        _mm_div_pd(_mm_mul_pd(vlr, mhat), _mm_add_pd(_mm_sqrt_pd(vhat), veps));
    _mm_storeu_pd(p + i, _mm_sub_pd(_mm_loadu_pd(p + i), delta));
  }
#endif
  for (; i < n; ++i) {
    m[i] = b1 * m[i] + c1 * g[i];
    v[i] = b2 * v[i] + c2 * g[i] * g[i];
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    p[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
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
