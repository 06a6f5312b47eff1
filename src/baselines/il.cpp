#include "baselines/il.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

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
  num_epochs_ = app.epochs.size();
  num_decisions_ = space.size();
  PARMIS_TRACE_SPAN_D("baselines", "oracle_table", "decisions=%zu;epochs=%zu",
                      num_decisions_, num_epochs_);
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

  // A decision index is a mixed-radix number with one digit per cluster
  // (cluster 0 most significant); cluster c's digit k stands for
  // min_active + k / levels active cores at level k % levels — the
  // decoding of soc::DecisionSpace::decision.  grid[first[c] + k] is
  // that digit's operating point on the current epoch.
  const std::vector<soc::ClusterSpec>& clusters = platform.spec().clusters;
  const std::size_t n_clusters = clusters.size();
  std::vector<std::size_t> radix(n_clusters), first(n_clusters);
  std::size_t grid_size = 0, decisions = 1;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    radix[c] = static_cast<std::size_t>(clusters[c].num_cores -
                                        clusters[c].min_active + 1) *
               static_cast<std::size_t>(clusters[c].dvfs.levels());
    first[c] = grid_size;
    grid_size += radix[c];
    decisions *= radix[c];
  }
  ensure(decisions == num_decisions_,
         "oracle table: decision radix does not match the decision space");
  std::vector<soc::ClusterOperatingPoint> grid(grid_size);
  std::vector<soc::ClusterOperatingPoint> points(n_clusters);
  std::vector<std::size_t> digit(n_clusters);

  const std::size_t column = num_epochs_ * num_decisions_;
  costs_.resize(2 * column);
  for (std::size_t e = 0; e < num_epochs_; ++e) {
    const soc::EpochWorkload& w = app.epochs[e];
    const soc::EpochResult ref_result = oracle_model.run_epoch(w, ref);
    for (std::size_t c = 0; c < n_clusters; ++c) {
      const int levels = clusters[c].dvfs.levels();
      for (std::size_t k = 0; k < radix[c]; ++k) {
        grid[first[c] + k] = oracle_model.operating_point(
            c, clusters[c].min_active + static_cast<int>(k) / levels,
            static_cast<int>(k) % levels, w);
      }
      digit[c] = 0;
      points[c] = grid[first[c]];
    }
    double* time_row = costs_.data() + e * num_decisions_;
    double* energy_row = time_row + column;
    for (std::size_t d = 0; d < num_decisions_; ++d) {
      const soc::EpochTimeEnergy r = oracle_model.time_energy(w, points);
      time_row[d] = r.time_s / ref_result.time_s;
      energy_row[d] = r.energy_j / ref_result.energy_j;
      // Step to decision d + 1: bump the last digit, carrying leftwards.
      for (std::size_t c = n_clusters; c-- > 0;) {
        if (++digit[c] == radix[c]) digit[c] = 0;
        points[c] = grid[first[c] + digit[c]];
        if (digit[c] != 0) break;
      }
    }
  }
}

std::vector<const double*> OracleTable::rows(
    std::size_t epoch, const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  require(epoch < num_epochs_, "oracle table: epoch out of range");
  require(weights.size() == objectives.size(),
          "oracle table: weight/objective mismatch");
  std::vector<const double*> out(objectives.size());
  for (std::size_t j = 0; j < objectives.size(); ++j) {
    const std::size_t column =
        objectives[j].kind() == runtime::ObjectiveKind::ExecutionTime ? 0 : 1;
    out[j] = costs_.data() + (column * num_epochs_ + epoch) * num_decisions_;
  }
  return out;
}

double OracleTable::scalarize(const std::vector<const double*>& rows,
                              const num::Vec& weights, std::size_t decision) {
  double cost = 0.0;
  for (std::size_t j = 0; j < rows.size(); ++j) {
    cost += weights[j] * rows[j][decision];
  }
  return cost;
}

double OracleTable::scalarized_cost(
    std::size_t epoch, std::size_t decision, const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  require(decision < num_decisions_, "oracle table: decision out of range");
  return scalarize(rows(epoch, weights, objectives), weights, decision);
}

OracleTable::MemoKey OracleTable::memo_key(
    const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives,
    std::span<const std::size_t> epochs) {
  require(weights.size() == objectives.size(),
          "oracle table: weight/objective mismatch");
  MemoKey key;
  key.reserve(1 + 2 * objectives.size() + epochs.size());
  key.push_back(objectives.size());
  for (std::size_t j = 0; j < objectives.size(); ++j) {
    key.push_back(
        objectives[j].kind() == runtime::ObjectiveKind::ExecutionTime ? 0
                                                                       : 1);
    key.push_back(std::bit_cast<std::uint64_t>(weights[j]));
  }
  key.insert(key.end(), epochs.begin(), epochs.end());
  return key;
}

template <typename Answer, typename Scan>
Answer OracleTable::remembered(std::map<MemoKey, Answer>& memo,
                               MemoKey key, const Scan& scan) const {
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = memo.find(key);
    if (it != memo.end()) {
      PARMIS_COUNTER_ADD("parmis_oracle_argmin_reuses_total", 1);
      return it->second;
    }
  }
  Answer answer = scan();
  PARMIS_COUNTER_ADD("parmis_oracle_argmin_scans_total", 1);
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  memo.try_emplace(std::move(key), answer);
  return answer;
}

std::vector<std::size_t> OracleTable::oracle_decisions(
    const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  return remembered(oracle_memo_, memo_key(weights, objectives, {}), [&] {
    std::vector<std::size_t> best(num_epochs_, 0);
    for (std::size_t e = 0; e < num_epochs_; ++e) {
      const std::vector<const double*> epoch_rows =
          rows(e, weights, objectives);
      double best_cost = std::numeric_limits<double>::infinity();
      for (std::size_t d = 0; d < num_decisions_; ++d) {
        const double cost = scalarize(epoch_rows, weights, d);
        if (cost < best_cost) {
          best_cost = cost;
          best[e] = d;
        }
      }
    }
    return best;
  });
}

std::size_t OracleTable::best_decision_index(
    std::span<const std::size_t> epochs, const num::Vec& weights,
    const std::vector<runtime::Objective>& objectives) const {
  return remembered(span_memo_, memo_key(weights, objectives, epochs), [&] {
    // One epoch at a time into one buffer, so each decision's sum adds
    // the epochs in `epochs` order.
    std::vector<double> sums(num_decisions_, 0.0);
    for (const std::size_t e : epochs) {
      const std::vector<const double*> epoch_rows =
          rows(e, weights, objectives);
      for (std::size_t d = 0; d < num_decisions_; ++d) {
        sums[d] += scalarize(epoch_rows, weights, d);
      }
    }
    std::size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t d = 0; d < num_decisions_; ++d) {
      if (sums[d] < best_cost) {
        best_cost = sums[d];
        best = d;
      }
    }
    return best;
  });
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
  for (const std::size_t d : table_->oracle_decisions(weights, objectives_)) {
    oracle_decisions.push_back(space.decision(d));
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

  // Trains the heads by cross-entropy over the aggregate dataset.  The
  // tape, loss gradient and parameter gradient are reused across
  // samples; each head's backward pass adds straight into its block of
  // `grad`, which holds zeros when the sample starts.
  auto fit = [&]() {
    ml::Adam adam(policy.num_parameters(), config_.learning_rate);
    std::vector<std::size_t> order(dataset.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    ml::MlpTape tape;
    num::Vec dlogits;
    num::Vec grad(policy.num_parameters(), 0.0);
    for (std::size_t pass = 0; pass < config_.training_passes; ++pass) {
      rng_.shuffle(order);
      for (std::size_t idx : order) {
        const LabeledState& item = dataset[idx];
        std::fill(grad.begin(), grad.end(), 0.0);
        for (std::size_t h = 0; h < policy.num_heads(); ++h) {
          const ml::Mlp& head = policy.head(h);
          ml::cross_entropy(head.forward(item.features, tape),
                            static_cast<std::size_t>(item.knob_labels[h]),
                            dlogits);
          head.backward(tape, dlogits,
                        std::span<double>(grad).subspan(
                            policy.head_offset(h), head.num_parameters()));
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
