// Tabular Q-learning DRM baseline — the representation the cited RL
// governors actually use.
//
// The paper notes (Sec. V-F): "contrary to existing implementation that
// employs look up table for RL [Kim et al. TVLSI'17], we use the same
// function approximator".  This module provides that look-up-table
// variant as well, so the representation choice itself can be ablated:
//  * state: the Table I counters discretized into a small grid
//    (utilization bins x memory-intensity bins x power bins),
//  * action: one of the four knobs' values, with independent per-knob
//    Q-tables (matching the per-knob MLP heads),
//  * update: one-step Q-learning with epsilon-greedy exploration on the
//    same scalarized per-epoch reward the REINFORCE baseline uses.
// Its policy object is deployable like any other Policy, but it has no
// flat theta — which is exactly why the paper's GP-over-theta framework
// moved to parametric policies.
#ifndef PARMIS_BASELINES_RL_TABULAR_HPP
#define PARMIS_BASELINES_RL_TABULAR_HPP

#include <vector>

#include "baselines/scalarization.hpp"
#include "policy/policy.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"
#include "soc/workload.hpp"

namespace parmis::baselines {

/// Discretization of the counter features into a joint state index.
class StateGrid {
 public:
  /// Bins per dimension for (max utilization, memory pressure, power).
  explicit StateGrid(int util_bins = 4, int mem_bins = 4, int power_bins = 3);

  /// Joint state index in [0, num_states()).
  std::size_t state_of(const soc::HwCounters& counters) const;

  std::size_t num_states() const;

 private:
  int util_bins_;
  int mem_bins_;
  int power_bins_;
};

/// Q-learning hyperparameters.
struct TabularQConfig {
  std::size_t episodes = 200;
  double learning_rate = 0.2;     ///< Q-table step size
  double epsilon_start = 0.5;     ///< exploration, annealed linearly
  double epsilon_end = 0.05;
  double discount = 0.6;          ///< per-epoch rewards are near-myopic
  std::uint64_t seed = 29;
  StateGrid grid = StateGrid{};
};

/// Greedy policy over learned per-knob Q-tables.
class TabularQPolicy final : public policy::Policy {
 public:
  TabularQPolicy(const soc::DecisionSpace& space, StateGrid grid,
                 std::vector<std::vector<num::Vec>> q_tables);

  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  std::string name() const override { return "tabular-q"; }

  /// Storage cost of the look-up tables — the paper's Sec. V-F point
  /// about LUT-based RL being memory-hungrier than an MLP.
  std::size_t table_bytes() const;

 private:
  const soc::DecisionSpace* space_;  // non-owning
  StateGrid grid_;
  // q_tables_[knob][state][action]
  std::vector<std::vector<num::Vec>> q_tables_;
};

/// Trains per-knob Q-tables for one scalarization.
class TabularQTrainer {
 public:
  /// Same objective restrictions as the REINFORCE baseline: only
  /// per-epoch decomposable objectives (time/energy); PPW throws.
  TabularQTrainer(soc::Platform& platform, soc::Application app,
                  std::vector<runtime::Objective> objectives,
                  TabularQConfig config = {});

  /// Runs Q-learning and returns the greedy policy.
  TabularQPolicy train(const num::Vec& weights);

  std::size_t evaluations_used() const { return evaluations_; }

 private:
  soc::Platform* platform_;  // non-owning
  soc::Application app_;
  std::vector<runtime::Objective> objectives_;
  TabularQConfig config_;
  Rng rng_;
  std::vector<num::Vec> epoch_reference_;
  std::size_t evaluations_ = 0;
};

/// Lambda sweep -> measured front, in the units of the "rl" campaign
/// method: each trained policy is measured by a GlobalEvaluator over
/// `app` (ratios to the default-decision policy).  Thetas stay empty
/// because LUT policies have no parameter vector.
BaselineFrontResult tabular_q_pareto_front(
    soc::Platform& platform, const soc::Application& app,
    const std::vector<runtime::Objective>& objectives, std::size_t grid_size,
    TabularQConfig config = {});

}  // namespace parmis::baselines

#endif  // PARMIS_BASELINES_RL_TABULAR_HPP
