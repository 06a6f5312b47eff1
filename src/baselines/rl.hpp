// Scalarized reinforcement-learning baseline (paper Sec. V-B).
//
// Follows the structure of the RL DRM literature the paper compares
// against [Chen et al. DATE'15, Kim et al. TVLSI'17]: a per-epoch reward
//   r_t = -( w_time * t_epoch / t_ref  +  w_energy * e_epoch / e_ref )
// (reference magnitudes come from the default configuration, so both
// terms are unit-free), optimized with REINFORCE (policy-gradient with a
// moving-average baseline, entropy bonus, and gradient clipping) on the
// same 4-head MLP policy PaRMIS uses ("we use the same function
// approximator to implement both RL and IL", Sec. V-F).  The "rl"
// campaign method (methods/builtin.cpp) sweeps the reward weights to
// trace the RL Pareto front.
//
// The PPW restriction is structural, exactly as the paper argues: the
// trainer only accepts objectives with per-epoch decomposable rewards
// (time, energy) and throws for PPW — "there is no reward function ...
// for PPW objective".
#ifndef PARMIS_BASELINES_RL_HPP
#define PARMIS_BASELINES_RL_HPP

#include <vector>

#include "baselines/scalarization.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"
#include "soc/workload.hpp"

namespace parmis::baselines {

/// REINFORCE hyperparameters.
struct RlConfig {
  std::size_t episodes = 150;     ///< rollouts per scalarization
  double learning_rate = 1.5e-2;
  double entropy_bonus = 5e-3;
  double gradient_clip = 5.0;
  std::uint64_t seed = 11;
  policy::MlpPolicyConfig policy;  ///< same architecture as PaRMIS
};

/// Trains one policy per scalarization weight vector.
class RlTrainer {
 public:
  /// `objectives` must be per-epoch decomposable (ExecutionTime and/or
  /// Energy / EDP / PeakPower); PPW throws (no reward function exists).
  RlTrainer(soc::Platform& platform, soc::Application app,
            std::vector<runtime::Objective> objectives, RlConfig config = {});

  /// Runs REINFORCE for `config.episodes` episodes with reward weights
  /// `weights` (same order as the objectives).  Returns the trained
  /// flattened policy parameters.
  num::Vec train(const num::Vec& weights);

  /// Platform runs consumed so far (episodes count as one run each).
  std::size_t evaluations_used() const { return evaluations_; }

 private:
  double epoch_reward(const num::Vec& weights, std::size_t epoch,
                      double time_s, double energy_j) const;

  soc::Platform* platform_;  // non-owning
  soc::Application app_;
  std::vector<runtime::Objective> objectives_;
  RlConfig config_;
  Rng rng_;
  std::vector<num::Vec> epoch_reference_;  ///< per-epoch (time, energy) refs
  std::size_t evaluations_ = 0;
};

}  // namespace parmis::baselines

#endif  // PARMIS_BASELINES_RL_HPP
