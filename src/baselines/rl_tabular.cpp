#include "baselines/rl_tabular.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "ml/softmax.hpp"
#include "moo/pareto.hpp"
#include "runtime/evaluator.hpp"

namespace parmis::baselines {

namespace {

bool reward_decomposable(runtime::ObjectiveKind kind) {
  using runtime::ObjectiveKind;
  return kind == ObjectiveKind::ExecutionTime ||
         kind == ObjectiveKind::Energy;
}

int bin_of(double value, double lo, double hi, int bins) {
  if (value <= lo) return 0;
  if (value >= hi) return bins - 1;
  return static_cast<int>((value - lo) / (hi - lo) * bins);
}

}  // namespace

StateGrid::StateGrid(int util_bins, int mem_bins, int power_bins)
    : util_bins_(util_bins), mem_bins_(mem_bins), power_bins_(power_bins) {
  require(util_bins >= 1 && mem_bins >= 1 && power_bins >= 1,
          "state grid: bins must be positive");
}

std::size_t StateGrid::state_of(const soc::HwCounters& counters) const {
  const int u = bin_of(counters.max_core_utilization, 0.0, 1.0, util_bins_);
  // Memory pressure proxy: external requests per retired instruction.
  const double mem_rate =
      counters.instructions_retired > 0.0
          ? counters.noncache_external_requests /
                counters.instructions_retired
          : 0.0;
  const int m = bin_of(mem_rate, 0.0, 0.04, mem_bins_);
  const int p = bin_of(counters.total_power_w, 0.0, 6.0, power_bins_);
  return static_cast<std::size_t>((u * mem_bins_ + m) * power_bins_ + p);
}

std::size_t StateGrid::num_states() const {
  return static_cast<std::size_t>(util_bins_) *
         static_cast<std::size_t>(mem_bins_) *
         static_cast<std::size_t>(power_bins_);
}

TabularQPolicy::TabularQPolicy(const soc::DecisionSpace& space,
                               StateGrid grid,
                               std::vector<std::vector<num::Vec>> q_tables)
    : space_(&space), grid_(grid), q_tables_(std::move(q_tables)) {
  require(q_tables_.size() == space.knob_cardinalities().size(),
          "tabular policy: one Q-table per knob required");
}

soc::DrmDecision TabularQPolicy::decide(const soc::HwCounters& counters) {
  const std::size_t s = grid_.state_of(counters);
  std::vector<int> knobs;
  knobs.reserve(q_tables_.size());
  for (const auto& table : q_tables_) {
    knobs.push_back(static_cast<int>(ml::argmax(table[s])));
  }
  return space_->from_knobs(knobs);
}

std::size_t TabularQPolicy::table_bytes() const {
  std::size_t cells = 0;
  for (const auto& table : q_tables_) {
    for (const auto& row : table) cells += row.size();
  }
  return cells * sizeof(double);
}

TabularQTrainer::TabularQTrainer(soc::Platform& platform,
                                 soc::Application app,
                                 std::vector<runtime::Objective> objectives,
                                 TabularQConfig config)
    : platform_(&platform),
      app_(std::move(app)),
      objectives_(std::move(objectives)),
      config_(config),
      rng_(config.seed) {
  app_.validate();
  require(!objectives_.empty(), "tabular-q: need objectives");
  for (const auto& o : objectives_) {
    require(reward_decomposable(o.kind()),
            "tabular-q: no per-epoch reward exists for objective '" +
                o.name() + "'");
  }
  const soc::DrmDecision ref = platform.decision_space().default_decision();
  for (const auto& epoch : app_.epochs) {
    const soc::EpochResult r = platform.run_epoch(epoch, ref);
    epoch_reference_.push_back({r.time_s, r.energy_j});
  }
}

TabularQPolicy TabularQTrainer::train(const num::Vec& weights) {
  require(weights.size() == objectives_.size(),
          "tabular-q: weight/objective dimension mismatch");
  const soc::DecisionSpace& space = platform_->decision_space();
  const std::vector<int> cards = space.knob_cardinalities();
  const std::size_t n_states = config_.grid.num_states();

  // Optimistic zero initialization; rewards are negative costs.
  std::vector<std::vector<num::Vec>> q(cards.size());
  for (std::size_t k = 0; k < cards.size(); ++k) {
    q[k].assign(n_states, num::Vec(static_cast<std::size_t>(cards[k]), 0.0));
  }

  auto reward_of = [&](std::size_t epoch, double time_s, double energy_j) {
    double reward = 0.0;
    for (std::size_t j = 0; j < objectives_.size(); ++j) {
      const double norm =
          objectives_[j].kind() == runtime::ObjectiveKind::ExecutionTime
              ? time_s / epoch_reference_[epoch][0]
              : energy_j / epoch_reference_[epoch][1];
      reward -= weights[j] * norm;
    }
    return reward;
  };

  for (std::size_t episode = 0; episode < config_.episodes; ++episode) {
    const double frac = config_.episodes > 1
                            ? static_cast<double>(episode) /
                                  static_cast<double>(config_.episodes - 1)
                            : 1.0;
    const double epsilon =
        config_.epsilon_start +
        frac * (config_.epsilon_end - config_.epsilon_start);

    std::optional<soc::DrmDecision> previous;
    soc::HwCounters counters;
    std::size_t state = 0;
    std::vector<int> actions(cards.size(), 0);
    bool have_pending_update = false;
    std::size_t prev_state = 0;
    std::vector<int> prev_actions;
    double prev_reward = 0.0;

    for (std::size_t e = 0; e < app_.epochs.size(); ++e) {
      soc::DrmDecision decision;
      if (e == 0) {
        decision = space.default_decision();
      } else {
        state = config_.grid.state_of(counters);
        for (std::size_t k = 0; k < cards.size(); ++k) {
          if (rng_.bernoulli(epsilon)) {
            actions[k] = rng_.uniform_int(0, cards[k] - 1);
          } else {
            actions[k] = static_cast<int>(ml::argmax(q[k][state]));
          }
        }
        decision = space.from_knobs(actions);

        // One-step delayed Q update: Q(s,a) += lr * (r + g*maxQ(s') - Q).
        if (have_pending_update) {
          for (std::size_t k = 0; k < cards.size(); ++k) {
            const double best_next =
                q[k][state][ml::argmax(q[k][state])];
            double& cell =
                q[k][prev_state][static_cast<std::size_t>(prev_actions[k])];
            cell += config_.learning_rate *
                    (prev_reward + config_.discount * best_next - cell);
          }
        }
      }

      const soc::EpochResult r =
          platform_->run_epoch(app_.epochs[e], decision, previous);
      if (e > 0) {
        prev_state = state;
        prev_actions = actions;
        prev_reward = reward_of(e, r.time_s, r.energy_j);
        have_pending_update = true;
      }
      previous = decision;
      counters = r.counters;
    }
    // Terminal update (no successor state: pure reward target).
    if (have_pending_update) {
      for (std::size_t k = 0; k < cards.size(); ++k) {
        double& cell =
            q[k][prev_state][static_cast<std::size_t>(prev_actions[k])];
        cell += config_.learning_rate * (prev_reward - cell);
      }
    }
    ++evaluations_;
  }
  return TabularQPolicy(space, config_.grid, std::move(q));
}

BaselineFrontResult tabular_q_pareto_front(
    soc::Platform& platform, const soc::Application& app,
    const std::vector<runtime::Objective>& objectives, std::size_t grid_size,
    TabularQConfig config) {
  BaselineFrontResult out;
  runtime::GlobalEvaluator evaluator(platform, {app}, objectives);
  const auto grid = scalarization_grid(objectives.size(), grid_size);
  std::uint64_t seed = config.seed;
  for (const num::Vec& weights : grid) {
    TabularQConfig cfg = config;
    cfg.seed = seed++;
    TabularQTrainer trainer(platform, app, objectives, cfg);
    TabularQPolicy policy = trainer.train(weights);
    out.total_evaluations += trainer.evaluations_used();
    out.objectives.push_back(evaluator.evaluate(policy));
    ++out.total_evaluations;
  }
  out.pareto_indices = moo::non_dominated_indices(out.objectives);
  return out;
}

}  // namespace parmis::baselines
