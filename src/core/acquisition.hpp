// Output-space information-gain acquisition (paper Sec. IV-B, Eq. 1-9).
//
// PaRMIS selects the next DRM policy parameters theta by maximizing the
// information gain between the observation {theta, O} and the optimal
// Pareto front O*:
//
//   alpha(theta) = H(O | D, theta) - E_{O*}[ H(O | D, theta, O*) ]
//
// The first term is the entropy of the factorized k-dimensional GP
// predictive (Eq. 4).  The expectation is approximated with S Monte-
// Carlo samples of the Pareto front (Eq. 5): each sample draws one
// function per objective from its GP posterior via random Fourier
// features and solves the k-objective minimization over theta with
// NSGA-II.  Conditioned on a sampled front O*_s, each objective O_j is
// upper-bounded by the front's per-dimension maximum (inequality 6,
// minimization convention), giving a truncated-Gaussian entropy in
// closed form (Eq. 8).  The terms combine into Eq. 9:
//
//   alpha(theta) ~= 1/S * sum_s sum_j [ g*phi(g)/(2 Phi(g)) - ln Phi(g) ],
//   g = gamma_s^j(theta) = (y_s^j* - mu_j(theta)) / sigma_j(theta).
//
// This file implements the per-iteration acquisition object: it is built
// once per PaRMIS iteration (front sampling is the expensive part) and
// then evaluated cheaply on many candidate thetas.
#ifndef PARMIS_CORE_ACQUISITION_HPP
#define PARMIS_CORE_ACQUISITION_HPP

#include <vector>

#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "moo/nsga2.hpp"
#include "numerics/vec.hpp"

namespace parmis::exec {
class ThreadPool;
}  // namespace parmis::exec

namespace parmis::core {

/// Acquisition construction options.
struct AcquisitionConfig {
  std::size_t num_mc_samples = 1;   ///< S in Eq. 5 (paper uses S = 1)
  std::size_t rff_features = 96;    ///< Fourier features per GP draw
  moo::Nsga2Config front_sampler{
      .population_size = 32,
      .generations = 24,
  };                                ///< NSGA-II over the sampled functions
};

/// One iteration's acquisition function alpha(theta).
class InformationGainAcquisition {
 public:
  /// Builds the sampled Pareto fronts from the current GP models.
  /// `models` is one fitted GP per objective (all with data), `lower`/
  /// `upper` bound the theta box.  `rng` drives the function draws and
  /// NSGA-II seeds.
  InformationGainAcquisition(const std::vector<gp::GpRegressor>& models,
                             const num::Vec& lower, const num::Vec& upper,
                             const AcquisitionConfig& config, Rng& rng);

  /// alpha(theta) per Eq. 9 (>= 0; larger = more informative): the
  /// one-candidate block of values().
  double value(const num::Vec& theta) const;

  /// Batched alpha over a whole candidate sweep, block by block.  Each
  /// block is swept to r^2 (GpRegressor::query_r2) once per distinct
  /// training set — in PaRMIS every objective's GP shares one — and
  /// each model then applies its own tail and reuses its Cholesky
  /// factor across the block (GpRegressor::predict_from_r2).  out[i] is
  /// bitwise identical to the score built from each model's own
  /// predict_many (see the contract in src/gp/gp.hpp), and to
  /// value(thetas[i]).  When `pool` is non-null the sweep parallelizes
  /// over fixed-size candidate blocks (results are block- and
  /// thread-count-invariant since candidate i only writes slot i).
  std::vector<double> values(const std::vector<num::Vec>& thetas,
                             exec::ThreadPool* pool = nullptr) const;

  /// Candidates per block in the batched sweep (one r^2 sweep per
  /// training set and one predict_from_r2 per model per block).  Scores
  /// are invariant to this value (see values()).
  static constexpr std::size_t kScoreBlock = 64;

  /// Per-sample truncation points y_s^j* : the component-wise best
  /// (minimum) of each sampled front.
  const std::vector<num::Vec>& front_minima() const { return minima_; }

  /// The sampled Pareto fronts themselves (objective space).
  const std::vector<std::vector<num::Vec>>& sampled_fronts() const {
    return fronts_;
  }

  /// Decision-space points on the sampled fronts — good seeds for the
  /// outer acquisition maximization.
  const std::vector<num::Vec>& frontier_thetas() const {
    return frontier_thetas_;
  }

 private:
  /// alpha at one candidate (Eq. 9) from its k posterior means and
  /// variances.
  double score(const double* mean, const double* variance) const;

  /// Scores `count` candidates (row-major count x dim) into out[0..count):
  /// the block body value() and values() share.
  void score_rows(const double* queries, std::size_t count, double* out) const;

  const std::vector<gp::GpRegressor>* models_;  // non-owning
  // Models grouped by bitwise-equal training inputs, recorded once at
  // construction: each block is swept to r^2 once per group.
  std::vector<std::vector<std::size_t>> input_groups_;
  std::vector<std::vector<num::Vec>> fronts_;   // S fronts
  std::vector<num::Vec> minima_;                // S x k truncation points
  std::vector<num::Vec> frontier_thetas_;
};

}  // namespace parmis::core

#endif  // PARMIS_CORE_ACQUISITION_HPP
