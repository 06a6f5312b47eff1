#include "gp/rff.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "numerics/batch.hpp"
#include "numerics/cholesky.hpp"
#include "obs/obs.hpp"

namespace parmis::gp {
namespace {

/// Queries per projection block, and the widest lane count.
constexpr std::size_t kBlock = 32;

/// Columns per projection pass: at 32 lanes a pass of the block is
/// 128 x 32 doubles (32 KiB) and stays in L1d while every feature
/// streams over it.  The value does not affect results.
constexpr std::size_t kColumnPass = 128;

/// One SIMD register of doubles: 4 lanes with AVX, 2 with SSE2 (the
/// build without -mavx) or NEON.  Lane-wise + and * round exactly as
/// the scalar operations do.
#ifdef __AVX__
constexpr std::size_t kVecLanes = 4;
#else
constexpr std::size_t kVecLanes = 2;
#endif
using Lanes = double __attribute__((vector_size(kVecLanes * sizeof(double))));

Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

Lanes broadcast(double w) {
  Lanes v;
  for (std::size_t i = 0; i < kVecLanes; ++i) v[i] = w;
  return v;
}

/// The lane count a block of `count` queries runs at: the smallest of
/// 4, 8, 16 and 32 that holds it.
std::size_t lane_width(std::size_t count) {
  std::size_t width = 4;
  while (width < count) width *= 2;
  return width;
}

/// The projection kernel.  `xt` holds W queries transposed (d x W,
/// query q in column q).  On entry acc[m * W + q] = phase[m]; on exit
/// it holds phase[m] + omega[m][0] * x_q[0] + ... + omega[m][d-1] *
/// x_q[d-1], accumulated in increasing c.  The columns are walked in
/// kColumnPass-wide passes; each feature's W running sums are loaded
/// from acc at the start of a pass and stored back at its end, which
/// is exact, so every W and every pass split runs the same per-pair
/// operation sequence.  Out of line, one aligned body per width.
template <std::size_t W>
[[gnu::noinline]] void project(const FeatureMap& map, const double* xt,
                               double* acc) {
  constexpr std::size_t kVecs = W / kVecLanes;
  const std::size_t m_count = map.num_features(), d = map.input_dim();
  const double* omega = map.omega.data().data();
  for (std::size_t c0 = 0; c0 < d; c0 += kColumnPass) {
    const std::size_t c1 = std::min(d, c0 + kColumnPass);
    for (std::size_t m = 0; m < m_count; ++m) {
      double* sums = acc + m * W;
      Lanes a[kVecs];
      for (std::size_t v = 0; v < kVecs; ++v) a[v] = load(sums + v * kVecLanes);
      const double* wrow = omega + m * d;
      for (std::size_t c = c0; c < c1; ++c) {
        const Lanes w = broadcast(wrow[c]);
        const double* xc = xt + c * W;
        for (std::size_t v = 0; v < kVecs; ++v) {
          a[v] += w * load(xc + v * kVecLanes);
        }
      }
      for (std::size_t v = 0; v < kVecs; ++v) store(sums + v * kVecLanes, a[v]);
    }
  }
}

/// Projects every column of `xt` (d x n) onto the feature map, one
/// block of up to kBlock queries at a time, each at its lane_width,
/// and hands each block to `epilogue(q0, count, acc, stride)`: the
/// projection of query q0 + j onto feature m is acc[m * stride + j],
/// for j < count.
template <class Epilogue>
void project_columns(const FeatureMap& map, const num::Matrix& xt,
                     Epilogue&& epilogue) {
  require(xt.rows() == map.input_dim(), "rff: dimension mismatch");
  const std::size_t d = xt.rows(), n = xt.cols(), m_count = map.num_features();
  const std::size_t widest = lane_width(std::min(kBlock, n));
  num::AlignedBuffer block(d * widest);
  num::AlignedBuffer acc(m_count * widest);
  for (std::size_t q0 = 0; q0 < n; q0 += kBlock) {
    const std::size_t count = std::min(kBlock, n - q0);
    const std::size_t width = lane_width(count);
    for (std::size_t c = 0; c < d; ++c) {
      const double* src = xt.row_view(c).data() + q0;
      double* dst = block.data() + c * width;
      std::copy(src, src + count, dst);
      std::fill(dst + count, dst + width, 0.0);  // padding: projected, unread
    }
    for (std::size_t m = 0; m < m_count; ++m) {
      std::fill_n(acc.data() + m * width, width, map.phase[m]);
    }
    switch (width) {
      case 4: project<4>(map, block.data(), acc.data()); break;
      case 8: project<8>(map, block.data(), acc.data()); break;
      case 16: project<16>(map, block.data(), acc.data()); break;
      default: project<32>(map, block.data(), acc.data()); break;
    }
    epilogue(q0, count, acc.data(), width);
  }
}

/// Feature-space posterior of the Bayesian linear model over `map`
/// (normalized target units):
///   A = Phi^T Phi / sn2 + I,  w | D ~ N(A^{-1} Phi^T y / sn2, A^{-1}).
struct WeightPosterior {
  num::Cholesky chol;  // of A
  num::Vec mean;
};

WeightPosterior weight_posterior(const GpRegressor& gp,
                                 const FeatureMap& map) {
  const num::Matrix phi = map.features(gp.train_inputs());
  const double sn2 = gp.noise_variance();
  num::Matrix a = num::matmul_blocked(phi.transposed(), phi);
  for (auto& v : a.data()) v /= sn2;
  a.add_diagonal(1.0);
  num::Cholesky chol(std::move(a));

  num::Vec phi_t_y = phi.matvec_transposed(gp.normalized_targets());
  for (auto& v : phi_t_y) v /= sn2;
  num::Vec mean = chol.solve(phi_t_y);
  return {std::move(chol), std::move(mean)};
}

}  // namespace

FeatureMap FeatureMap::draw(const Kernel& kernel, std::size_t dim,
                            std::size_t num_features, Rng& rng) {
  FeatureMap map;
  map.scale = std::sqrt(2.0 * kernel.signal_variance() /
                        static_cast<double>(num_features));
  map.omega = num::Matrix(num_features, dim);
  map.phase.resize(num_features);
  for (std::size_t m = 0; m < num_features; ++m) {
    const num::Vec omega = kernel.sample_spectral_frequency(rng, dim);
    std::copy(omega.begin(), omega.end(), map.omega.row_view(m).begin());
    map.phase[m] = rng.uniform(0.0, 2.0 * std::numbers::pi);
  }
  return map;
}

num::Matrix FeatureMap::features(const num::Matrix& X) const {
  num::Matrix phi(X.rows(), num_features());
  project_columns(*this, X.transposed(),
                  [&](std::size_t q0, std::size_t count, const double* acc,
                      std::size_t stride) {
                    for (std::size_t j = 0; j < count; ++j) {
                      double* prow = phi.row_view(q0 + j).data();
                      for (std::size_t m = 0; m < num_features(); ++m) {
                        prow[m] = scale * std::cos(acc[m * stride + j]);
                      }
                    }
                  });
  return phi;
}

SampledFunction::SampledFunction(FeatureMap features, num::Vec weights,
                                 double y_mean, double y_scale)
    : features_(std::move(features)),
      weights_(std::move(weights)),
      y_mean_(y_mean),
      y_scale_(y_scale) {
  require(weights_.size() == features_.num_features(),
          "sampled function: one weight per feature");
}

double SampledFunction::operator()(const num::Vec& x) const {
  require(x.size() == input_dim(), "sampled function: dimension mismatch");
  num::Matrix xt(x.size(), 1);
  std::copy(x.begin(), x.end(), xt.data().begin());
  return eval_many(xt)[0];
}

num::Vec SampledFunction::eval_many(const num::Matrix& xt) const {
  num::Vec out(xt.cols());
  project_columns(features_, xt,
                  [&](std::size_t q0, std::size_t count, const double* acc,
                      std::size_t stride) {
                    for (std::size_t j = 0; j < count; ++j) {
                      double f = 0.0;
                      for (std::size_t m = 0; m < num_features(); ++m) {
                        f += weights_[m] * features_.scale *
                             std::cos(acc[m * stride + j]);
                      }
                      out[q0 + j] = y_mean_ + y_scale_ * f;
                    }
                  });
  return out;
}

SampledFunction sample_posterior_function(const GpRegressor& gp, Rng& rng,
                                          std::size_t num_features) {
  PARMIS_TRACE_SPAN("gp", "rff_draw");
  require(num_features > 0, "need at least one Fourier feature");
  const std::size_t d =
      gp.has_data() ? gp.input_dim() : 0;  // a fitted GP with data is required
  require(d > 0, "RFF sampling requires a fitted GP with data");

  FeatureMap map = FeatureMap::draw(gp.kernel(), d, num_features, rng);
  const WeightPosterior post = weight_posterior(gp, map);

  // One weight draw: w = mean + L_A^{-T} z,  z ~ N(0, I).
  num::Vec z(num_features);
  for (auto& v : z) v = rng.normal();
  const num::Vec noise_w = post.chol.solve_lower_transposed(z);
  num::Vec weights(num_features);
  for (std::size_t m = 0; m < num_features; ++m) {
    weights[m] = post.mean[m] + noise_w[m];
  }
  return SampledFunction(std::move(map), std::move(weights), gp.target_mean(),
                         gp.target_scale());
}

}  // namespace parmis::gp
