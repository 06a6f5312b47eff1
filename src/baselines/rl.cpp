#include "baselines/rl.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.hpp"
#include "ml/optimizer.hpp"
#include "ml/softmax.hpp"

namespace parmis::baselines {

namespace {

/// Objectives a per-epoch reward can be written for.
bool reward_decomposable(runtime::ObjectiveKind kind) {
  using runtime::ObjectiveKind;
  return kind == ObjectiveKind::ExecutionTime ||
         kind == ObjectiveKind::Energy;
}

}  // namespace

RlTrainer::RlTrainer(soc::Platform& platform, soc::Application app,
                     std::vector<runtime::Objective> objectives,
                     RlConfig config)
    : platform_(&platform),
      app_(std::move(app)),
      objectives_(std::move(objectives)),
      config_(config),
      rng_(config.seed) {
  app_.validate();
  require(!objectives_.empty(), "rl: need objectives");
  for (const auto& o : objectives_) {
    require(reward_decomposable(o.kind()),
            "rl: no per-epoch reward function exists for objective '" +
                o.name() + "' (see paper Sec. V-E: PPW has no reward)");
  }
  // Per-epoch reference magnitudes from the default configuration give a
  // unit-free reward (as in the cited RL DRM work).
  const soc::DrmDecision ref = platform.decision_space().default_decision();
  for (const auto& epoch : app_.epochs) {
    const soc::EpochResult r = platform.run_epoch(epoch, ref);
    epoch_reference_.push_back({r.time_s, r.energy_j});
  }
}

double RlTrainer::epoch_reward(const num::Vec& weights, std::size_t epoch,
                               double time_s, double energy_j) const {
  double reward = 0.0;
  for (std::size_t j = 0; j < objectives_.size(); ++j) {
    const double norm =
        objectives_[j].kind() == runtime::ObjectiveKind::ExecutionTime
            ? time_s / epoch_reference_[epoch][0]
            : energy_j / epoch_reference_[epoch][1];
    reward -= weights[j] * norm;
  }
  return reward;
}

num::Vec RlTrainer::train(const num::Vec& weights) {
  require(weights.size() == objectives_.size(),
          "rl: weight/objective dimension mismatch");

  policy::MlpPolicy policy(platform_->decision_space(), config_.policy);
  policy.init_xavier(rng_);

  // One flat Adam state across all heads, addressed by per-head offsets.
  const std::size_t n_params = policy.num_parameters();
  ml::Adam adam(n_params, config_.learning_rate);
  num::Vec params = policy.parameters();

  double baseline = 0.0;        // moving average of episode returns
  bool baseline_init = false;

  const soc::DecisionSpace& space = platform_->decision_space();
  const std::size_t n_heads = policy.num_heads();

  // Update-loop buffers, reused across episodes, steps and heads.
  ml::MlpTape tape;
  num::Vec p, logp, dlogits;
  num::Vec grad(n_params, 0.0);

  for (std::size_t episode = 0; episode < config_.episodes; ++episode) {
    policy.set_parameters(params);

    // --- rollout, storing what backprop needs ---
    struct Step {
      num::Vec features;
      std::vector<std::size_t> actions;
      double reward = 0.0;
    };
    std::vector<Step> steps;
    std::optional<soc::DrmDecision> previous;
    soc::HwCounters counters;

    for (std::size_t e = 0; e < app_.epochs.size(); ++e) {
      soc::DrmDecision decision;
      Step step;
      if (e == 0) {
        decision = space.default_decision();
      } else {
        step.features = counters.to_features();
        decision =
            policy.decide_stochastic(counters, rng_, &step.actions);
      }
      const soc::EpochResult r =
          platform_->run_epoch(app_.epochs[e], decision, previous);
      if (e > 0) {
        step.reward = epoch_reward(weights, e, r.time_s, r.energy_j);
        steps.push_back(std::move(step));
      }
      previous = decision;
      counters = r.counters;
    }
    ++evaluations_;

    // --- per-step advantages ---
    // The DRM rewards are immediate (each epoch's cost depends on that
    // epoch's decision plus the one-step transition coupling), so the
    // contextual-bandit form A_t = r_t - b with a running mean baseline
    // has far lower variance than reward-to-go over a 20+ step horizon;
    // the cited table-based RL governors make the same per-epoch
    // myopic-credit assumption.
    num::Vec returns(steps.size());
    double episode_mean = 0.0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      returns[i] = steps[i].reward;
      episode_mean += steps[i].reward;
    }
    if (!steps.empty()) {
      episode_mean /= static_cast<double>(steps.size());
    }
    if (!baseline_init) {
      baseline = episode_mean;
      baseline_init = true;
    } else {
      baseline = 0.9 * baseline + 0.1 * episode_mean;
    }

    // --- REINFORCE gradient (gradient of the scalar loss
    //     -sum_t A_t log pi(a_t|s_t) - beta * H) ---
    // Each head's backward pass adds straight into its block of `grad`.
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::size_t t = 0; t < steps.size(); ++t) {
      const double advantage = returns[t] - baseline;
      for (std::size_t h = 0; h < n_heads; ++h) {
        const ml::Mlp& head = policy.head(h);
        const num::Vec& logits = head.forward(steps[t].features, tape);
        ml::softmax(logits, p);
        ml::log_softmax(logits, logp);
        double entropy = 0.0;
        for (std::size_t i = 0; i < p.size(); ++i) entropy -= p[i] * logp[i];

        dlogits.resize(logits.size());
        for (std::size_t i = 0; i < logits.size(); ++i) {
          // d/dz of -A*log pi:  -A * (onehot - p)
          const double onehot = i == steps[t].actions[h] ? 1.0 : 0.0;
          dlogits[i] = -advantage * (onehot - p[i]);
          // d/dz of -beta*H:  beta * p_i * (logp_i + H)
          dlogits[i] += config_.entropy_bonus * p[i] * (logp[i] + entropy);
        }
        head.backward(tape, dlogits,
                      std::span<double>(grad).subspan(policy.head_offset(h),
                                                      head.num_parameters()));
      }
    }
    if (!steps.empty()) {
      for (double& g : grad) g /= static_cast<double>(steps.size());
    }
    ml::clip_gradient_norm(grad, config_.gradient_clip);
    adam.step(params, grad);
  }
  return params;
}

}  // namespace parmis::baselines
