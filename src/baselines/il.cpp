#include "baselines/il.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "ml/optimizer.hpp"
#include "ml/softmax.hpp"
#include "obs/obs.hpp"

namespace parmis::baselines {

namespace {

bool oracle_supported(runtime::ObjectiveKind kind) {
  using runtime::ObjectiveKind;
  return kind == ObjectiveKind::ExecutionTime ||
         kind == ObjectiveKind::Energy;
}

/// (state features, per-head labels) pair for supervised training.
struct LabeledState {
  num::Vec features;
  std::vector<int> knob_labels;
};

}  // namespace

OracleTable::OracleTable(soc::Platform& platform,
                         const soc::Application& app,
                         OracleFidelity fidelity) {
  app.validate();
  const soc::DecisionSpace& space = platform.decision_space();
  num_decisions_ = space.size();
  PARMIS_TRACE_SPAN_D("baselines", "oracle_table", "decisions=%zu;epochs=%zu",
                      num_decisions_, app.epochs.size());
  const soc::DrmDecision ref = space.default_decision();

  // FirstOrder: the characterization model the IL literature builds its
  // oracles from — linear core scaling, no DRAM queueing superlinearity,
  // no heterogeneous straggler imbalance.  Exact: the true platform
  // model (possible only in simulation).
  soc::PerfModelParams oracle_params = platform.model().params();
  if (fidelity == OracleFidelity::FirstOrder) {
    oracle_params.sched_overhead_per_core = 0.0;
    oracle_params.contention_exponent = 1.0;
    oracle_params.straggler_coeff = 0.0;
  }
  const soc::PerfModel oracle_model(platform.spec(), oracle_params);

  std::vector<soc::EpochResult> ref_results;
  ref_results.reserve(app.epochs.size());
  for (const auto& epoch : app.epochs) {
    ref_results.push_back(oracle_model.run_epoch(epoch, ref));
  }
  costs_.assign(app.epochs.size(),
                std::vector<std::array<double, 2>>(num_decisions_));
  // Decision-major: each decision is decoded once for every epoch.
  // Every (epoch, decision) cost is the same pure run_epoch ratio in any
  // visiting order.
  for (std::size_t d = 0; d < num_decisions_; ++d) {
    const soc::DrmDecision decision = space.decision(d);
    for (std::size_t e = 0; e < app.epochs.size(); ++e) {
      const soc::EpochResult r =
          oracle_model.run_epoch(app.epochs[e], decision);
      costs_[e][d] = {r.time_s / ref_results[e].time_s,
                      r.energy_j / ref_results[e].energy_j};
    }
  }
}

double OracleTable::scalarized_cost(
    std::size_t epoch, std::size_t decision, const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  require(epoch < costs_.size(), "oracle table: epoch out of range");
  require(decision < num_decisions_, "oracle table: decision out of range");
  require(weights.size() == objectives.size(),
          "oracle table: weight/objective mismatch");
  double cost = 0.0;
  for (std::size_t j = 0; j < objectives.size(); ++j) {
    const double c =
        objectives[j].kind() == runtime::ObjectiveKind::ExecutionTime
            ? costs_[epoch][decision][0]
            : costs_[epoch][decision][1];
    cost += weights[j] * c;
  }
  return cost;
}

std::size_t OracleTable::best_decision_index(
    std::size_t epoch, const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  require(epoch < costs_.size(), "oracle table: epoch out of range");
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < num_decisions_; ++d) {
    const double cost = scalarized_cost(epoch, d, weights, objectives);
    if (cost < best_cost) {
      best_cost = cost;
      best = d;
    }
  }
  return best;
}

IlTrainer::IlTrainer(soc::Platform& platform, soc::Application app,
                     std::vector<runtime::Objective> objectives,
                     const OracleTable& table, IlConfig config)
    : platform_(&platform),
      app_(std::move(app)),
      objectives_(std::move(objectives)),
      table_(&table),
      config_(config),
      rng_(config.seed) {
  app_.validate();
  require(table.num_epochs() == app_.num_epochs(),
          "il: oracle table does not match the application");
  for (const auto& o : objectives_) {
    require(oracle_supported(o.kind()),
            "il: no optimal oracle exists for objective '" + o.name() +
                "' (see paper Sec. V-E: PPW has no oracle)");
  }
}

num::Vec IlTrainer::train(const num::Vec& weights) {
  require(weights.size() == objectives_.size(),
          "il: weight/objective dimension mismatch");
  const soc::DecisionSpace& space = platform_->decision_space();

  // --- oracle decision sequence for this scalarization ---
  std::vector<soc::DrmDecision> oracle_decisions;
  oracle_decisions.reserve(app_.num_epochs());
  for (std::size_t e = 0; e < app_.num_epochs(); ++e) {
    oracle_decisions.push_back(space.decision(
        table_->best_decision_index(e, weights, objectives_)));
  }

  policy::MlpPolicy policy(space, config_.policy);
  policy.init_xavier(rng_);
  num::Vec params = policy.parameters();

  std::vector<LabeledState> dataset;

  // Rolls out `use_policy ? learned policy : oracle sequence`, labelling
  // every visited state with the oracle's decision for the next epoch.
  auto rollout_and_label = [&](bool use_policy) {
    std::optional<soc::DrmDecision> previous;
    soc::HwCounters counters;
    for (std::size_t e = 0; e < app_.num_epochs(); ++e) {
      soc::DrmDecision decision;
      if (e == 0) {
        decision = space.default_decision();
      } else {
        LabeledState item;
        item.features = counters.to_features();
        item.knob_labels = space.to_knobs(oracle_decisions[e]);
        dataset.push_back(std::move(item));
        decision = use_policy ? policy.decide(counters)
                              : oracle_decisions[e];
      }
      const soc::EpochResult r =
          platform_->run_epoch(app_.epochs[e], decision, previous);
      previous = decision;
      counters = r.counters;
    }
    ++evaluations_;
  };

  // Trains the heads by cross-entropy over the aggregate dataset.
  auto fit = [&]() {
    ml::Adam adam(policy.num_parameters(), config_.learning_rate);
    std::vector<std::size_t> order(dataset.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    std::vector<std::size_t> offsets(policy.num_heads());
    std::size_t off = 0;
    for (std::size_t h = 0; h < policy.num_heads(); ++h) {
      offsets[h] = off;
      off += policy.head(h).num_parameters();
    }

    for (std::size_t pass = 0; pass < config_.training_passes; ++pass) {
      rng_.shuffle(order);
      num::Vec grad(policy.num_parameters(), 0.0);
      for (std::size_t idx : order) {
        const LabeledState& item = dataset[idx];
        std::fill(grad.begin(), grad.end(), 0.0);
        for (std::size_t h = 0; h < policy.num_heads(); ++h) {
          ml::MlpTape tape;
          const num::Vec logits =
              policy.head(h).forward(item.features, tape);
          const auto ce = ml::cross_entropy(
              logits, static_cast<std::size_t>(item.knob_labels[h]));
          num::Vec head_grad(policy.head(h).num_parameters(), 0.0);
          policy.head(h).backward(tape, ce.dlogits, head_grad);
          for (std::size_t i = 0; i < head_grad.size(); ++i) {
            grad[offsets[h] + i] += head_grad[i];
          }
        }
        adam.step(params, grad);
        policy.set_parameters(params);
      }
    }
  };

  // Round 0: behaviour cloning on the oracle's own trajectory.
  rollout_and_label(/*use_policy=*/false);
  fit();
  // DAgger rounds: aggregate states visited by the learned policy.
  for (std::size_t round = 0; round < config_.dagger_rounds; ++round) {
    rollout_and_label(/*use_policy=*/true);
    fit();
  }
  return params;
}

}  // namespace parmis::baselines
