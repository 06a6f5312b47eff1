// PaRMIS — Algorithm 1 of the paper.
//
// Inputs: an expensive black-box evaluation theta -> (O_1..O_k)
// (minimization convention; in practice "run the DRM policy with
// parameters theta on the platform and measure the objectives"), the
// theta box, and budgets.  The loop:
//   1. fit one GP per objective on all (theta, O) pairs so far,
//   2. build the information-gain acquisition (sampled Pareto fronts),
//   3. maximize alpha(theta) over a candidate pool (uniform samples,
//      Gaussian perturbations of incumbent Pareto thetas, and the
//      sampled-front NSGA-II survivors) with a short local refinement,
//   4. evaluate the chosen theta on the platform, append to the data.
// At the end the non-dominated subset of all evaluations is returned as
// the Pareto-frontier policy set, together with the PHV-vs-iteration
// convergence trace (paper Fig. 2).
#ifndef PARMIS_CORE_PARMIS_HPP
#define PARMIS_CORE_PARMIS_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/acquisition.hpp"
#include "gp/gp.hpp"
#include "numerics/vec.hpp"

namespace parmis::exec {
class ThreadPool;
}

namespace parmis::core {

/// Black-box policy evaluation: theta -> objective vector (minimized).
using EvaluationFn = std::function<num::Vec(const num::Vec&)>;

/// PaRMIS configuration.  The defaults are the scaled bench settings;
/// paper scale is max_iterations = 500.
struct ParmisConfig {
  std::size_t num_initial = 12;      ///< initial design size (anchors +
                                     ///< uniform random fill)
  std::vector<num::Vec> initial_thetas;  ///< evaluated first, clamped to
                                         ///< the box (e.g. anchor
                                         ///< policies for known configs)
  std::size_t max_iterations = 100;  ///< BO iterations after the design
  double theta_bound = 2.0;          ///< box [-b, b]^d over policy params
  std::string kernel = "rbf";        ///< "rbf" | "matern52"
  double noise_variance = 1e-4;      ///< GP observation noise (normalized)
  std::size_t hyperopt_interval = 25;///< refit hyperparams every N iters
  std::size_t hyperopt_candidates = 24;
  std::size_t acq_pool_size = 192;   ///< candidate pool for argmax alpha
  std::size_t acq_refine_steps = 16; ///< local perturbation refinement
  double perturbation_sd = 0.15;     ///< relative to the box half-width
  AcquisitionConfig acquisition;     ///< S, RFF features, NSGA-II budget
  std::uint64_t seed = 7;
  bool track_convergence = true;     ///< record PHV after every iteration
  std::optional<num::Vec> phv_reference;  ///< fixed PHV reference point

  /// Optional worker pool for scoring the acquisition candidate pool.
  /// alpha(theta) evaluations are independent const reads of the GP
  /// models, and the argmax reduction is index-ordered, so the chosen
  /// theta is identical at every pool size.  nullptr = serial scoring.
  exec::ThreadPool* pool = nullptr;
};

/// The first rule `config` breaks (num_initial >= 2, a kernel
/// make_kernel knows, finite noise_variance > 0, finite theta_bound > 0,
/// finite perturbation_sd >= 0, acq_pool_size >= 1), or "" if it
/// passes.  The Parmis constructor rejects exactly these
/// configurations, and scenario validation rejects them at plan load.
std::string parmis_config_error(const ParmisConfig& config);

/// Everything PaRMIS produces.
struct ParmisResult {
  std::vector<num::Vec> thetas;       ///< all evaluated policy parameters
  std::vector<num::Vec> objectives;   ///< matching objective vectors
  std::vector<std::size_t> pareto_indices;  ///< final non-dominated subset
  std::vector<double> phv_history;    ///< PHV after each evaluation
  num::Vec phv_reference;             ///< reference point used for PHV

  /// Objective vectors of the final Pareto set.
  std::vector<num::Vec> pareto_front() const;
  /// Theta vectors of the final Pareto set.
  std::vector<num::Vec> pareto_thetas() const;
};

/// The PaRMIS optimizer (paper Algorithm 1).
class Parmis {
 public:
  /// `evaluate` is called once per iteration; `theta_dim` and
  /// `num_objectives` fix the search-space and output dimensions.
  Parmis(EvaluationFn evaluate, std::size_t theta_dim,
         std::size_t num_objectives, ParmisConfig config = {});

  /// Runs initialization + the full iteration budget.
  ParmisResult run();

  /// Step-wise API (used by the convergence bench and examples).
  void initialize();            ///< evaluates the random initial design
  void step();                  ///< one acquisition-driven iteration
  bool initialized() const { return initialized_; }
  std::size_t evaluations() const { return thetas_.size(); }

  /// Snapshot of the current result state.
  ParmisResult result() const;

  const ParmisConfig& config() const { return config_; }

 private:
  void fit_models();
  num::Vec maximize_acquisition(const InformationGainAcquisition& acq);
  /// Runs the evaluation (traced as core/evaluate), then records it.
  void evaluate_and_record(const num::Vec& theta);
  void record_evaluation(const num::Vec& theta, const num::Vec& objs);
  void update_phv();

  EvaluationFn evaluate_;
  std::size_t theta_dim_;
  std::size_t num_objectives_;
  ParmisConfig config_;
  Rng rng_;

  num::Vec lower_, upper_;
  std::vector<gp::GpRegressor> models_;
  std::vector<num::Vec> thetas_;
  std::vector<num::Vec> objectives_;
  std::vector<double> phv_history_;
  std::optional<num::Vec> phv_ref_;
  bool initialized_ = false;
  std::size_t iterations_done_ = 0;
};

}  // namespace parmis::core

#endif  // PARMIS_CORE_PARMIS_HPP
