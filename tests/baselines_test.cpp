// Tests for src/baselines: scalarization grids, the RL (REINFORCE) and
// IL (oracle + DAgger) baselines, and the DyPO-style clustered baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "apps/benchmarks.hpp"
#include "baselines/dypo.hpp"
#include "baselines/il.hpp"
#include "baselines/rl.hpp"
#include "baselines/rl_tabular.hpp"
#include "baselines/scalarization.hpp"
#include "common/error.hpp"
#include "moo/pareto.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/evaluator.hpp"

namespace parmis::baselines {
namespace {

soc::Application small_app() {
  // Trimmed qsort keeps baseline training fast in tests.
  soc::Application app = apps::make_benchmark("qsort");
  app.epochs.resize(12);
  return app;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Checks every decision on the first `epochs` epochs of `app`: the
/// table's (time, energy) costs, read through scalarized_cost with
/// weights {1, 0} and {0, 1}, are the bits of the run_epoch ratios under
/// the fidelity's model parameters (as OracleTable documents them).
void expect_table_is_run_epoch_ratios(soc::Platform& platform,
                                      const soc::Application& app,
                                      OracleFidelity fidelity,
                                      std::size_t epochs) {
  SCOPED_TRACE(fidelity == OracleFidelity::Exact ? "exact" : "first order");
  const OracleTable table(platform, app, fidelity);
  soc::PerfModelParams params = platform.model().params();
  if (fidelity == OracleFidelity::FirstOrder) {
    params.sched_overhead_per_core = 0.0;
    params.contention_exponent = 1.0;
    params.straggler_coeff = 0.0;
  }
  const soc::PerfModel model(platform.spec(), params);
  const soc::DecisionSpace& space = platform.decision_space();
  const auto objectives = runtime::time_energy_objectives();
  const num::Vec time_only = {1.0, 0.0};
  const num::Vec energy_only = {0.0, 1.0};
  ASSERT_EQ(table.num_decisions(), space.size());
  std::size_t checked = 0, mismatched = 0;
  for (std::size_t e = 0; e < epochs; ++e) {
    const soc::EpochResult ref =
        model.run_epoch(app.epochs[e], space.default_decision());
    for (std::size_t d = 0; d < space.size(); ++d) {
      const soc::EpochResult r =
          model.run_epoch(app.epochs[e], space.decision(d));
      const bool same =
          same_bits(table.scalarized_cost(e, d, time_only, objectives),
                    r.time_s / ref.time_s) &&
          same_bits(table.scalarized_cost(e, d, energy_only, objectives),
                    r.energy_j / ref.energy_j);
      if (!same && mismatched++ == 0) {
        ADD_FAILURE() << "first mismatch at epoch " << e << ", decision "
                      << d;
      }
      ++checked;
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << checked << " pairs";
}

/// Lowest index of the smallest cost summed over `epochs` (in order),
/// by a plain scan over scalarized_cost.
std::size_t scan_best(const OracleTable& table,
                      const std::vector<std::size_t>& epochs,
                      const num::Vec& weights,
                      const std::vector<runtime::Objective>& objectives) {
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < table.num_decisions(); ++d) {
    double cost = 0.0;
    for (std::size_t e : epochs) {
      cost += table.scalarized_cost(e, d, weights, objectives);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = d;
    }
  }
  return best;
}

const std::vector<num::Vec>& argmin_weights() {
  // {0, 0} ties every decision at cost 0.
  static const std::vector<num::Vec> weights = {
      {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}, {0.3, 0.7}, {0.0, 0.0}};
  return weights;
}

// ----------------------------------------------------------- scalarization

TEST(Scalarization, TwoObjectiveGridCoversEndpoints) {
  const auto grid = scalarization_grid(2, 5);
  ASSERT_EQ(grid.size(), 5u);
  for (const auto& w : grid) {
    EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
    EXPECT_GE(w[0], 0.0);
  }
  EXPECT_DOUBLE_EQ(grid.front()[0], 0.0);
  EXPECT_DOUBLE_EQ(grid.back()[0], 1.0);
}

TEST(Scalarization, ThreeObjectiveLatticeSumsToOne) {
  const auto grid = scalarization_grid(3, 4);
  EXPECT_GT(grid.size(), 5u);
  for (const auto& w : grid) {
    ASSERT_EQ(w.size(), 3u);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
  }
}

TEST(Scalarization, ScalarizeIsDotProduct) {
  EXPECT_DOUBLE_EQ(scalarize({0.3, 0.7}, {2.0, 4.0}), 3.4);
}

TEST(Scalarization, Validation) {
  EXPECT_THROW(scalarization_grid(1, 5), Error);
  EXPECT_THROW(scalarization_grid(2, 1), Error);
}

TEST(ScalarizedSearch, SweepsGridDeterministicallyOnAnalyticProblem) {
  // theta in [-2, 2]^2; objectives (theta0 - 1)^2 and (theta0 + 1)^2
  // plus a theta1 penalty: the true front lives on theta1 = 0,
  // theta0 in [-1, 1].
  const auto evaluate = [](const num::Vec& t) {
    const double penalty = t[1] * t[1];
    return num::Vec{(t[0] - 1.0) * (t[0] - 1.0) + penalty,
                    (t[0] + 1.0) * (t[0] + 1.0) + penalty};
  };
  ScalarizedSearchConfig config;
  config.grid_divisions = 5;
  config.steps_per_weight = 20;
  config.seed = 3;
  config.initial_thetas = {{0.0, 1.5}, {1.8, -1.2}};
  const BaselineFrontResult a = scalarized_search(evaluate, 2, 2, config);
  const BaselineFrontResult b = scalarized_search(evaluate, 2, 2, config);

  // Budget accounting: anchors + grid * steps, all recorded.
  EXPECT_EQ(a.total_evaluations, 2u + 5u * 20u);
  EXPECT_EQ(a.thetas.size(), a.total_evaluations);
  EXPECT_EQ(a.objectives.size(), a.total_evaluations);
  EXPECT_FALSE(a.pareto_indices.empty());

  // Determinism, bit for bit.
  ASSERT_EQ(a.objectives.size(), b.objectives.size());
  for (std::size_t i = 0; i < a.objectives.size(); ++i) {
    EXPECT_EQ(a.objectives[i], b.objectives[i]);
    EXPECT_EQ(a.thetas[i], b.thetas[i]);
  }

  // The hill climb actually optimizes: some front point must beat every
  // anchor under the pure single-objective weights.
  double best_f0 = 1e300;
  for (const auto& o : a.pareto_front()) best_f0 = std::min(best_f0, o[0]);
  EXPECT_LT(best_f0, 0.5);  // anchors give f0 = 1.0+ at best

  // Thetas are clamped into the box.
  for (const auto& t : a.thetas) {
    for (double v : t) {
      EXPECT_GE(v, -config.theta_bound);
      EXPECT_LE(v, config.theta_bound);
    }
  }

  EXPECT_THROW(scalarized_search(evaluate, 0, 2, config), Error);
  EXPECT_THROW(scalarized_search(evaluate, 2, 1, config), Error);
}

TEST(Scalarization, FrontResultExtractsPareto) {
  BaselineFrontResult r;
  r.objectives = {{1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}, {3.0, 3.0}};
  r.pareto_indices = moo::non_dominated_indices(r.objectives);
  const auto front = r.pareto_front();
  EXPECT_EQ(front.size(), 3u);
}

// --------------------------------------------------------------------- rl

TEST(Rl, RejectsPpwObjective) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  // The paper's structural point: no reward function exists for PPW.
  EXPECT_THROW(
      RlTrainer(platform, small_app(), runtime::time_ppw_objectives()),
      Error);
}

TEST(Rl, TrainingImprovesScalarizedObjective) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const auto objectives = runtime::time_energy_objectives();

  RlConfig cfg;
  cfg.episodes = 80;
  cfg.seed = 5;
  RlTrainer trainer(platform, app, objectives, cfg);
  const num::Vec theta = trainer.train({0.5, 0.5});
  EXPECT_EQ(trainer.evaluations_used(), 80u);

  runtime::Evaluator eval(platform);
  policy::MlpPolicy trained(platform.decision_space());
  trained.set_parameters(theta);
  const num::Vec trained_obj = eval.evaluate(trained, app, objectives);

  // Reference: untrained random-initialized policies (mean of a few).
  Rng rng(6);
  double untrained_cost = 0.0;
  const int k = 5;
  for (int i = 0; i < k; ++i) {
    policy::MlpPolicy fresh(platform.decision_space());
    fresh.init_xavier(rng);
    const num::Vec o = eval.evaluate(fresh, app, objectives);
    untrained_cost += 0.5 * o[0] + 0.5 * o[1];
  }
  untrained_cost /= k;
  EXPECT_LT(0.5 * trained_obj[0] + 0.5 * trained_obj[1],
            untrained_cost * 1.05);
}

TEST(Rl, WeightsSteerTheTradeoff) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const auto objectives = runtime::time_energy_objectives();
  RlConfig cfg;
  cfg.episodes = 100;
  cfg.seed = 7;

  RlTrainer t1(platform, app, objectives, cfg);
  const num::Vec theta_time = t1.train({1.0, 0.0});
  RlTrainer t2(platform, app, objectives, cfg);
  const num::Vec theta_energy = t2.train({0.0, 1.0});

  runtime::Evaluator eval(platform);
  policy::MlpPolicy p(platform.decision_space());
  p.set_parameters(theta_time);
  const num::Vec o_time = eval.evaluate(p, app, objectives);
  p.set_parameters(theta_energy);
  const num::Vec o_energy = eval.evaluate(p, app, objectives);
  // The time-weighted policy must be at least as fast.
  EXPECT_LE(o_time[0], o_energy[0] * 1.10);
  // And the energy-weighted policy must not burn more energy.
  EXPECT_LE(o_energy[1], o_time[1] * 1.10);
}

// --------------------------------------------------------------------- il

TEST(Il, OracleTableCoversDecisionSpace) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  EXPECT_EQ(table.num_epochs(), app.num_epochs());
  EXPECT_EQ(table.num_decisions(), 4940u);
  EXPECT_EQ(table.build_evaluations(), 4940u * app.num_epochs());
}

TEST(Il, OracleBeatsArbitraryDecisionsPerEpoch) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  const auto objectives = runtime::time_energy_objectives();
  const num::Vec w = {0.5, 0.5};
  Rng rng(8);
  const std::vector<std::size_t> oracle = table.oracle_decisions(w, objectives);
  ASSERT_EQ(oracle.size(), app.num_epochs());
  for (std::size_t e = 0; e < app.num_epochs(); ++e) {
    const std::size_t best = oracle[e];
    const double best_cost = table.scalarized_cost(e, best, w, objectives);
    for (int probe = 0; probe < 20; ++probe) {
      const std::size_t d = rng.uniform_index(4940);
      EXPECT_LE(best_cost,
                table.scalarized_cost(e, d, w, objectives) + 1e-12);
    }
  }
}

TEST(Il, ExtremeWeightsChooseExtremeConfigs) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  const auto objectives = runtime::time_energy_objectives();
  // Pure-time oracle decisions should clock big cores high.
  const auto fast =
      space.decision(table.oracle_decisions({1.0, 0.0}, objectives)[0]);
  const auto frugal =
      space.decision(table.oracle_decisions({0.0, 1.0}, objectives)[0]);
  EXPECT_GT(fast.freq_level[0], frugal.freq_level[0]);
}

TEST(Il, RejectsPpwObjective) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  EXPECT_THROW(
      IlTrainer(platform, app, runtime::time_ppw_objectives(), table),
      Error);
}

TEST(Il, TrainedPolicyApproachesOracleCost) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  const auto objectives = runtime::time_energy_objectives();

  IlConfig cfg;
  cfg.training_passes = 40;
  cfg.dagger_rounds = 1;
  IlTrainer trainer(platform, app, objectives, table, cfg);
  const num::Vec theta = trainer.train({0.5, 0.5});

  runtime::Evaluator eval(platform);
  policy::MlpPolicy trained(platform.decision_space());
  trained.set_parameters(theta);
  const num::Vec o_trained = eval.evaluate(trained, app, objectives);

  Rng rng(9);
  policy::MlpPolicy fresh(platform.decision_space());
  fresh.init_xavier(rng);
  const num::Vec o_fresh = eval.evaluate(fresh, app, objectives);

  const double cost_trained = 0.5 * o_trained[0] + 0.5 * o_trained[1];
  const double cost_fresh = 0.5 * o_fresh[0] + 0.5 * o_fresh[1];
  EXPECT_LT(cost_trained, cost_fresh);
}

TEST(Il, TableApplicationMismatchThrows) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const OracleTable table(platform, small_app());
  soc::Application other = small_app();
  other.epochs.resize(6);
  EXPECT_THROW(IlTrainer(platform, other,
                         runtime::time_energy_objectives(), table),
               Error);
}

TEST(Il, OracleFidelityChangesBeliefs) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable exact(platform, app, OracleFidelity::Exact);
  const OracleTable first(platform, app, OracleFidelity::FirstOrder);
  const auto objectives = runtime::time_energy_objectives();
  // The first-order model ignores contention/straggler effects, so it
  // must disagree with the exact model on at least some decisions.
  int disagreements = 0;
  for (const double w : {0.2, 0.5, 0.8}) {
    const num::Vec weights = {w, 1.0 - w};
    const std::vector<std::size_t> exact_oracle =
        exact.oracle_decisions(weights, objectives);
    const std::vector<std::size_t> first_oracle =
        first.oracle_decisions(weights, objectives);
    for (std::size_t e = 0; e < app.num_epochs(); ++e) {
      if (exact_oracle[e] != first_oracle[e]) ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(Il, FirstOrderOracleOverestimatesManyCoreConfigs) {
  // The linear-scaling belief rates all-cores-max relatively better
  // against a big-cluster-only configuration than the exact model does
  // on a branchy app (it lacks the straggler/contention terms).  Costs
  // are normalized per-belief, so compare the all-max/big-only RATIO.
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  const soc::Application app = small_app();  // qsort: branchy
  const OracleTable exact(platform, app, OracleFidelity::Exact);
  const OracleTable first(platform, app, OracleFidelity::FirstOrder);
  const auto objectives = runtime::time_energy_objectives();
  const num::Vec time_only = {1.0, 0.0};
  const std::size_t all_max = space.index(space.max_performance_decision());
  soc::DrmDecision big_only = space.max_performance_decision();
  big_only.active_cores[1] = spec.clusters[1].min_active;
  big_only.freq_level[1] = 0;
  const std::size_t big_only_idx = space.index(big_only);

  double exact_ratio = 0.0, first_ratio = 0.0;
  for (std::size_t e = 0; e < app.num_epochs(); ++e) {
    exact_ratio += exact.scalarized_cost(e, all_max, time_only, objectives) /
                   exact.scalarized_cost(e, big_only_idx, time_only,
                                         objectives);
    first_ratio += first.scalarized_cost(e, all_max, time_only, objectives) /
                   first.scalarized_cost(e, big_only_idx, time_only,
                                         objectives);
  }
  EXPECT_LT(first_ratio, exact_ratio);
}

TEST(Il, OracleTableIsRunEpochRatiosBitForBit) {
  // The table sweep and run_epoch share one time/energy kernel; every
  // stored cost must be run_epoch's ratio, bit for bit.  Every pair on
  // the Exynos space; three epochs of mobile3's 50 336 decisions.
  const soc::SocSpec exynos = soc::SocSpec::exynos5422();
  soc::Platform exynos_platform(exynos);
  const soc::Application app = small_app();
  soc::Application short_app = apps::make_benchmark("aes");
  short_app.epochs.resize(3);
  const soc::SocSpec mobile3 = soc::SocSpec::mobile3();
  soc::Platform mobile3_platform(mobile3);
  for (const OracleFidelity fidelity :
       {OracleFidelity::FirstOrder, OracleFidelity::Exact}) {
    expect_table_is_run_epoch_ratios(exynos_platform, app, fidelity,
                                     app.num_epochs());
    expect_table_is_run_epoch_ratios(mobile3_platform, short_app, fidelity,
                                     short_app.num_epochs());
  }
}

TEST(Il, OracleDecisionsEqualScanOverScalarizedCost) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  const auto objectives = runtime::time_energy_objectives();
  for (const num::Vec& w : argmin_weights()) {
    const std::vector<std::size_t> oracle =
        table.oracle_decisions(w, objectives);
    for (std::size_t e = 0; e < app.num_epochs(); ++e) {
      EXPECT_EQ(oracle[e], scan_best(table, {e}, w, objectives))
          << "epoch " << e << ", weights " << w[0] << "/" << w[1];
    }
  }
  EXPECT_EQ(table.oracle_decisions({0.0, 0.0}, objectives)[0], 0u);

  // A tie the model itself makes: a hot-plugged cluster draws nothing
  // at any level, so the most frugal decision (big cluster off) ties
  // across the big cluster's levels.  The lowest index must win.
  const num::Vec energy_only = {0.0, 1.0};
  const std::size_t best =
      table.oracle_decisions(energy_only, objectives)[0];
  const double best_cost =
      table.scalarized_cost(0, best, energy_only, objectives);
  EXPECT_EQ(platform.decision_space().decision(best).active_cores[0], 0);
  std::size_t tied = 0;
  for (std::size_t d = 0; d < table.num_decisions(); ++d) {
    if (same_bits(table.scalarized_cost(0, d, energy_only, objectives),
                  best_cost) &&
        tied++ == 0) {
      EXPECT_EQ(d, best);
    }
  }
  EXPECT_GT(tied, 1u);
}

TEST(Il, RememberedArgminsEqualScanFirstRepeatedAndConcurrent) {
  // The table remembers each answered argmin; a remembered answer must
  // be the plain scan's, on the first call, on a repeated call, and when
  // 4 threads ask for the same keys at once (the tsan leg runs this).
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const auto objectives = runtime::time_energy_objectives();
  const std::vector<std::size_t> members = {3, 0, 7, 7, 11};
  const std::vector<num::Vec>& weights = argmin_weights();

  const OracleTable reference(platform, app);
  std::vector<std::vector<std::size_t>> want_oracle;
  std::vector<std::size_t> want_span;
  for (const num::Vec& w : weights) {
    std::vector<std::size_t> per_epoch;
    for (std::size_t e = 0; e < app.num_epochs(); ++e) {
      per_epoch.push_back(scan_best(reference, {e}, w, objectives));
    }
    want_oracle.push_back(per_epoch);
    want_span.push_back(scan_best(reference, members, w, objectives));
  }

  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE(call == 0 ? "first call" : "repeated call");
    for (std::size_t i = 0; i < weights.size(); ++i) {
      EXPECT_EQ(reference.oracle_decisions(weights[i], objectives),
                want_oracle[i]);
      EXPECT_EQ(reference.best_decision_index(members, weights[i],
                                              objectives),
                want_span[i]);
    }
  }
  // The epoch order is part of a summed query's key.
  const std::vector<std::size_t> reordered = {0, 3, 7, 7, 11};
  EXPECT_EQ(reference.best_decision_index(reordered, weights[2], objectives),
            scan_best(reference, reordered, weights[2], objectives));

  const OracleTable shared(platform, app);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int call = 0; call < 2; ++call) {
        for (std::size_t k = 0; k < weights.size(); ++k) {
          const std::size_t i = (k + t) % weights.size();
          if (shared.oracle_decisions(weights[i], objectives) !=
              want_oracle[i]) {
            ++mismatches;
          }
          if (shared.best_decision_index(members, weights[i], objectives) !=
              want_span[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --------------------------------------------------------------- tabular q

TEST(TabularQ, StateGridCoversAndBins) {
  StateGrid grid(4, 4, 3);
  EXPECT_EQ(grid.num_states(), 48u);
  soc::HwCounters c;
  c.max_core_utilization = 0.0;
  c.instructions_retired = 1e9;
  c.noncache_external_requests = 0.0;
  c.total_power_w = 0.0;
  EXPECT_EQ(grid.state_of(c), 0u);
  c.max_core_utilization = 1.0;
  c.noncache_external_requests = 1e9;  // saturates the memory bin
  c.total_power_w = 10.0;
  EXPECT_EQ(grid.state_of(c), 47u);
  // Distinct loads map to distinct states.
  soc::HwCounters lo = c, hi = c;
  lo.max_core_utilization = 0.1;
  hi.max_core_utilization = 0.9;
  EXPECT_NE(grid.state_of(lo), grid.state_of(hi));
}

TEST(TabularQ, RejectsPpwObjective) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  EXPECT_THROW(TabularQTrainer(platform, small_app(),
                               runtime::time_ppw_objectives()),
               Error);
}

TEST(TabularQ, TrainedPolicyIsValidAndDeployable) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  TabularQConfig cfg;
  cfg.episodes = 60;
  TabularQTrainer trainer(platform, app, runtime::time_energy_objectives(),
                          cfg);
  TabularQPolicy policy = trainer.train({0.5, 0.5});
  EXPECT_EQ(trainer.evaluations_used(), 60u);
  soc::HwCounters c;
  c.max_core_utilization = 0.8;
  c.instructions_retired = 1e9;
  EXPECT_TRUE(platform.decision_space().is_valid(policy.decide(c)));
  // The LUT footprint exceeds an MLP policy's (the paper's Sec. V-F
  // argument for function approximation).
  policy::MlpPolicy mlp(platform.decision_space());
  EXPECT_GT(policy.table_bytes(), mlp.serialized_bytes());
}

TEST(TabularQ, TrainingImprovesScalarizedObjective) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const auto objectives = runtime::time_energy_objectives();
  TabularQConfig cfg;
  cfg.episodes = 150;
  cfg.seed = 3;
  TabularQTrainer trainer(platform, app, objectives, cfg);
  TabularQPolicy trained = trainer.train({0.5, 0.5});

  runtime::Evaluator eval(platform);
  const num::Vec o_trained = eval.evaluate(trained, app, objectives);
  policy::RandomPolicy random_policy(platform.decision_space(), 4);
  const num::Vec o_random = eval.evaluate(random_policy, app, objectives);
  EXPECT_LT(0.5 * o_trained[0] + 0.5 * o_trained[1],
            0.5 * o_random[0] + 0.5 * o_random[1]);
}

TEST(TabularQ, SweepProducesFront) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  TabularQConfig cfg;
  cfg.episodes = 40;
  const BaselineFrontResult r = tabular_q_pareto_front(
      platform, small_app(), runtime::time_energy_objectives(), 3, cfg);
  EXPECT_EQ(r.objectives.size(), 3u);
  EXPECT_FALSE(r.pareto_indices.empty());
}

// ------------------------------------------------------------------- dypo

TEST(Dypo, PolicyIsValidNearestCentroidLookup) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  DypoPolicy policy = dypo_train(platform, app,
                                 runtime::time_energy_objectives(), table,
                                 {0.5, 0.5}, 3, 10);
  EXPECT_LE(policy.num_clusters(), 3u);
  soc::HwCounters c;
  c.max_core_utilization = 0.9;
  EXPECT_TRUE(platform.decision_space().is_valid(policy.decide(c)));
}

TEST(Dypo, ClusterChoiceEqualsScanOverScalarizedCost) {
  // DyPO's per-cluster operating point sums each decision's cost over
  // the cluster's epochs in member order; a plain scan over
  // scalarized_cost must pick the same index, ties going lowest.
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  const soc::Application app = small_app();
  const OracleTable table(platform, app);
  const auto objectives = runtime::time_energy_objectives();
  std::vector<std::size_t> all(app.num_epochs());
  for (std::size_t e = 0; e < all.size(); ++e) all[e] = e;
  const std::vector<std::size_t> members = {3, 0, 7, 7, 11};
  soc::HwCounters counters;
  counters.max_core_utilization = 0.5;
  for (const num::Vec& w : argmin_weights()) {
    SCOPED_TRACE(std::to_string(w[0]) + "/" + std::to_string(w[1]));
    EXPECT_EQ(table.best_decision_index(members, w, objectives),
              scan_best(table, members, w, objectives));
    // One cluster: every epoch is a member, and the policy deploys the
    // scan's decision whatever the counters.
    DypoPolicy policy = dypo_train(platform, app, objectives, table, w, 1, 5);
    EXPECT_EQ(policy.decide(counters),
              space.decision(scan_best(table, all, w, objectives)));
  }
  EXPECT_EQ(table.best_decision_index(members, {0.0, 0.0}, objectives), 0u);
}

}  // namespace
}  // namespace parmis::baselines
