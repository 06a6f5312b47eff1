#include "methods/builtin.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "baselines/dypo.hpp"
#include "baselines/il.hpp"
#include "baselines/rl.hpp"
#include "baselines/scalarization.hpp"
#include "common/canonical.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/policy_search.hpp"
#include "methods/oracle_memo.hpp"
#include "methods/registry.hpp"
#include "moo/pareto.hpp"
#include "policy/governors.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/evaluator.hpp"
#include "scenario/scenario.hpp"
#include "serde/json_util.hpp"

namespace parmis::methods {

namespace {

using canonical::put_bool;
using canonical::put_f64;
using canonical::put_u64;

// ------------------------------------------------------------- helpers

/// Resolves the runner-supplied config to this method's type: nullptr
/// means defaults; a foreign type is a caller bug reported loudly.
template <typename ConfigT>
ConfigT resolve_config(const Method& method, const MethodConfig* config) {
  if (config == nullptr) return ConfigT{};
  const auto* typed = dynamic_cast<const ConfigT*>(config);
  require(typed != nullptr, "method \"" + method.name() +
                                "\": config of the wrong type (was it "
                                "built by a different method?)");
  return *typed;
}

/// Non-empty canonical bytes iff `canon(config)` differs from
/// `canon(default)` — the rule that keeps defaulted cache keys stable.
template <typename ConfigT, typename CanonFn>
std::string canonical_or_empty(const ConfigT& config, CanonFn canon) {
  std::string bytes = canon(config);
  if (bytes == canon(ConfigT{})) return {};
  return bytes;
}

/// Constant-decision anchors of the cell's policy problem, truncated to
/// the keyed anchor limit (run_cell's historical behaviour).
std::vector<num::Vec> limited_anchors(const core::DrmPolicyProblem& problem,
                                      std::size_t anchor_limit) {
  std::vector<num::Vec> anchors = problem.anchor_thetas();
  if (anchor_limit > 0 && anchors.size() > anchor_limit) {
    anchors.resize(anchor_limit);
  }
  return anchors;
}

/// Table II protocol: decision overhead of the first Pareto-optimal
/// policy, timed on the cell's first application.
double deployed_overhead(const CellContext& ctx, policy::Policy& deployed) {
  runtime::EvaluatorConfig timed = ctx.eval_config;
  timed.measure_decision_overhead = true;
  runtime::Evaluator evaluator(ctx.platform, timed);
  return evaluator.run(deployed, ctx.apps.front()).decision_overhead_us;
}

/// Trainer seed for sweep element `index` of a cell: a splitmix64 mix
/// of (cell seed, index), NOT cell_seed + index — consecutive cell
/// seeds must not share all-but-one trainer RNG stream, or multi-seed
/// replicates of the learned baselines would be correlated.
std::uint64_t sweep_seed(std::uint64_t cell_seed, std::uint64_t index) {
  std::uint64_t state = cell_seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  return splitmix64(state);
}

/// The RL/IL lambda sweep.  Each scalarization trains one MLP policy
/// on the cell's first application (the paper's per-app protocol) with
/// a trainer from `make_trainer(sweep_seed(cell seed, index))`; every
/// trained policy is then measured globally, so the front shares the
/// objective space — and the PHV reference — of every other method on
/// the cell.  `evaluations` is what the method spent before the sweep.
template <typename MakeTrainer>
MethodOutput mlp_sweep(const CellContext& ctx, std::size_t grid_divisions,
                       const policy::MlpPolicyConfig& policy_config,
                       std::size_t evaluations, MakeTrainer make_trainer) {
  runtime::GlobalEvaluator global(ctx.platform, ctx.apps, ctx.objectives,
                                  ctx.eval_config);
  baselines::BaselineFrontResult res;
  res.total_evaluations = evaluations;
  const auto grid = baselines::scalarization_grid(ctx.objectives.size(),
                                                  grid_divisions);
  for (std::size_t w = 0; w < grid.size(); ++w) {
    auto trainer = make_trainer(sweep_seed(ctx.seed, w));
    const num::Vec theta = trainer.train(grid[w]);
    res.total_evaluations += trainer.evaluations_used();
    policy::MlpPolicy policy(ctx.platform.decision_space(), policy_config);
    policy.set_parameters(theta);
    res.thetas.push_back(theta);
    res.objectives.push_back(global.evaluate(policy));
    ++res.total_evaluations;
  }
  res.pareto_indices = moo::non_dominated_indices(res.objectives);

  MethodOutput out;
  out.front = res.pareto_front();
  out.evaluations = res.total_evaluations;
  out.pareto_thetas = res.pareto_thetas();
  if (!out.pareto_thetas.empty()) {
    policy::MlpPolicy deployed(ctx.platform.decision_space(), policy_config);
    deployed.set_parameters(out.pareto_thetas.front());
    out.decision_overhead_us = deployed_overhead(ctx, deployed);
  }
  return out;
}

const MethodCapabilities& time_energy_only() {
  static const MethodCapabilities caps{
      {runtime::ObjectiveKind::ExecutionTime, runtime::ObjectiveKind::Energy},
      /*max_decision_space=*/0};
  return caps;
}

/// IL and DyPO additionally sweep the full decision space per epoch to
/// build their oracle tables: fine on exynos5422 (4 940) and mobile3
/// (50 336), intractable on manycore16 (30 504 500) — so they bound the
/// space they accept and validation rejects larger platforms up front.
const MethodCapabilities& exhaustive_oracle_caps() {
  static const MethodCapabilities caps{
      {runtime::ObjectiveKind::ExecutionTime, runtime::ObjectiveKind::Energy},
      /*max_decision_space=*/200000};
  return caps;
}

/// The cell's oracle table at `fidelity` from the run's memo.  The
/// first cell asking for its (scenario, fidelity) builds it from its own
/// platform and first application; both are pure functions of the
/// scenario, so every later cell would have built the same table.
std::shared_ptr<const baselines::OracleTable> oracle_table(
    const CellContext& ctx, baselines::OracleFidelity fidelity) {
  return ctx.oracle_tables.get(
      OracleTableMemo::key(ctx.canonical_spec, fidelity), [&] {
        return std::make_shared<const baselines::OracleTable>(
            ctx.platform, ctx.apps.front(), fidelity);
      });
}

// -------------------------------------------------------------- parmis

class ParmisMethod final : public Method {
 public:
  std::string name() const override { return "parmis"; }
  std::string description() const override {
    return "information-theoretic Pareto policy search (the paper's "
           "method); budget from the scenario's parmis block";
  }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    resolve_config<NoConfig>(*this, config);  // rejects foreign configs
    core::DrmPolicyProblem problem(ctx.platform, ctx.apps, ctx.objectives,
                                   {}, ctx.eval_config);
    core::ParmisConfig parmis_config = ctx.spec.parmis;
    parmis_config.seed = ctx.seed;
    parmis_config.initial_thetas =
        limited_anchors(problem, ctx.anchor_limit);
    core::Parmis parmis(problem.evaluation_fn(), problem.theta_dim(),
                        ctx.objectives.size(), parmis_config);
    const core::ParmisResult result = parmis.run();

    MethodOutput out;
    out.front = result.pareto_front();
    out.evaluations = result.thetas.size();
    out.pareto_thetas = result.pareto_thetas();
    if (!out.pareto_thetas.empty()) {
      policy::MlpPolicy deployed =
          problem.make_policy(out.pareto_thetas.front());
      out.decision_overhead_us = deployed_overhead(ctx, deployed);
    }
    return out;
  }

 private:
  /// parmis carries no method config (the budget travels in the spec);
  /// this empty type makes resolve_config reject foreign ones.
  struct NoConfig final : MethodConfig {
    std::unique_ptr<MethodConfig> clone() const override {
      return std::make_unique<NoConfig>(*this);
    }
  };
};

// ------------------------------------------------------- scalarization

class ScalarizationMethod final : public Method {
 public:
  std::string name() const override { return "scalarization"; }
  std::string description() const override {
    return "linear-scalarization baseline: weighted-sum hill-climb over "
           "the simplex grid on the same policy problem";
  }

  std::unique_ptr<MethodConfig> default_config() const override {
    return std::make_unique<ScalarizationMethodConfig>();
  }

  std::unique_ptr<MethodConfig> config_from_json(
      const json::Value& doc, const std::string& context) const override {
    serde::ObjectReader r(doc, context);
    auto config = std::make_unique<ScalarizationMethodConfig>();
    config->grid_divisions =
        r.get_size("grid_divisions", config->grid_divisions);
    config->steps_per_weight =
        r.get_size("steps_per_weight", config->steps_per_weight);
    r.finish();
    require(config->grid_divisions >= 1,
            context + ": grid_divisions must be >= 1");
    return config;
  }

  json::Value config_to_json(const MethodConfig& config) const override {
    const auto& c = resolve_config<ScalarizationMethodConfig>(*this, &config);
    json::Value out = json::Value::object();
    out.set("grid_divisions", serde::u64_to_json(c.grid_divisions));
    out.set("steps_per_weight", serde::u64_to_json(c.steps_per_weight));
    return out;
  }

  std::string canonical_config(const MethodConfig* config) const override {
    if (config == nullptr) return {};
    return canonical_or_empty(
        resolve_config<ScalarizationMethodConfig>(*this, config),
        [](const ScalarizationMethodConfig& c) {
          std::string out;
          put_u64(out, "scalarization.grid_divisions", c.grid_divisions);
          put_u64(out, "scalarization.steps_per_weight", c.steps_per_weight);
          return out;
        });
  }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    const ScalarizationMethodConfig cfg =
        resolve_config<ScalarizationMethodConfig>(*this, config);
    core::DrmPolicyProblem problem(ctx.platform, ctx.apps, ctx.objectives,
                                   {}, ctx.eval_config);
    baselines::ScalarizedSearchConfig search;
    search.grid_divisions = cfg.grid_divisions;
    // The historical one-dial coupling: the sweep's budget knob reuses
    // the spec's PaRMIS budget unless the method config overrides it.
    search.steps_per_weight =
        cfg.steps_per_weight > 0
            ? cfg.steps_per_weight
            : std::max<std::size_t>(1, ctx.spec.parmis.max_iterations);
    search.theta_bound = ctx.spec.parmis.theta_bound;
    search.perturbation_sd = ctx.spec.parmis.perturbation_sd;
    search.seed = ctx.seed;
    search.initial_thetas = limited_anchors(problem, ctx.anchor_limit);
    const baselines::BaselineFrontResult result =
        baselines::scalarized_search(problem.evaluation_fn(),
                                     problem.theta_dim(),
                                     ctx.objectives.size(), search);

    MethodOutput out;
    out.front = result.pareto_front();
    out.evaluations = result.total_evaluations;
    out.pareto_thetas = result.pareto_thetas();
    if (!out.pareto_thetas.empty()) {
      policy::MlpPolicy deployed =
          problem.make_policy(out.pareto_thetas.front());
      out.decision_overhead_us = deployed_overhead(ctx, deployed);
    }
    return out;
  }
};

// ------------------------------------------------------------ governors

class GovernorMethod final : public Method {
 public:
  using Factory = std::unique_ptr<policy::Policy> (*)(
      const soc::DecisionSpace& space, std::uint64_t seed);

  GovernorMethod(std::string name, std::string description, Factory factory)
      : name_(std::move(name)),
        description_(std::move(description)),
        factory_(factory) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    require(config == nullptr,
            "method \"" + name_ + "\" takes no configuration");
    const std::unique_ptr<policy::Policy> policy =
        factory_(ctx.platform.decision_space(), ctx.seed);
    runtime::EvaluatorConfig timed = ctx.eval_config;
    timed.measure_decision_overhead = true;
    runtime::GlobalEvaluator evaluator(ctx.platform, ctx.apps,
                                       ctx.objectives, timed);
    MethodOutput out;
    out.front = {evaluator.evaluate(*policy)};
    out.evaluations = 1;
    double overhead = 0.0;
    for (const auto& m : evaluator.last_per_app_metrics()) {
      overhead += m.decision_overhead_us;
    }
    out.decision_overhead_us =
        overhead / static_cast<double>(ctx.apps.size());
    return out;
  }

 private:
  std::string name_;
  std::string description_;
  Factory factory_;
};

template <typename GovernorT>
std::unique_ptr<policy::Policy> make_governor(const soc::DecisionSpace& space,
                                              std::uint64_t seed) {
  (void)seed;
  return std::make_unique<GovernorT>(space);
}

std::unique_ptr<policy::Policy> make_random(const soc::DecisionSpace& space,
                                            std::uint64_t seed) {
  return std::make_unique<policy::RandomPolicy>(space, seed);
}

// ------------------------------------------------------------------- rl

class RlMethod final : public Method {
 public:
  std::string name() const override { return "rl"; }
  std::string description() const override {
    return "scalarized REINFORCE sweep (Sec. V-B); trains on the first "
           "application, deploys globally";
  }
  MethodCapabilities capabilities() const override {
    return time_energy_only();
  }

  std::unique_ptr<MethodConfig> default_config() const override {
    return std::make_unique<RlMethodConfig>();
  }

  std::unique_ptr<MethodConfig> config_from_json(
      const json::Value& doc, const std::string& context) const override {
    serde::ObjectReader r(doc, context);
    auto config = std::make_unique<RlMethodConfig>();
    config->grid_divisions =
        r.get_size("grid_divisions", config->grid_divisions);
    config->episodes = r.get_size("episodes", config->episodes);
    config->learning_rate =
        r.get_f64("learning_rate", config->learning_rate);
    config->entropy_bonus =
        r.get_f64("entropy_bonus", config->entropy_bonus);
    config->gradient_clip =
        r.get_f64("gradient_clip", config->gradient_clip);
    r.finish();
    require(config->grid_divisions >= 1,
            context + ": grid_divisions must be >= 1");
    require(config->episodes >= 1, context + ": episodes must be >= 1");
    return config;
  }

  json::Value config_to_json(const MethodConfig& config) const override {
    const auto& c = resolve_config<RlMethodConfig>(*this, &config);
    json::Value out = json::Value::object();
    out.set("grid_divisions", serde::u64_to_json(c.grid_divisions));
    out.set("episodes", serde::u64_to_json(c.episodes));
    out.set("learning_rate", json::Value::number(c.learning_rate));
    out.set("entropy_bonus", json::Value::number(c.entropy_bonus));
    out.set("gradient_clip", json::Value::number(c.gradient_clip));
    return out;
  }

  std::string canonical_config(const MethodConfig* config) const override {
    if (config == nullptr) return {};
    return canonical_or_empty(
        resolve_config<RlMethodConfig>(*this, config),
        [](const RlMethodConfig& c) {
          std::string out;
          put_u64(out, "rl.grid_divisions", c.grid_divisions);
          put_u64(out, "rl.episodes", c.episodes);
          put_f64(out, "rl.learning_rate", c.learning_rate);
          put_f64(out, "rl.entropy_bonus", c.entropy_bonus);
          put_f64(out, "rl.gradient_clip", c.gradient_clip);
          return out;
        });
  }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    const RlMethodConfig cfg = resolve_config<RlMethodConfig>(*this, config);
    baselines::RlConfig rl;
    rl.episodes = cfg.episodes;
    rl.learning_rate = cfg.learning_rate;
    rl.entropy_bonus = cfg.entropy_bonus;
    rl.gradient_clip = cfg.gradient_clip;

    return mlp_sweep(ctx, cfg.grid_divisions, rl.policy, 0,
                     [&](std::uint64_t seed) {
                       baselines::RlConfig c = rl;
                       c.seed = seed;
                       return baselines::RlTrainer(
                           ctx.platform, ctx.apps.front(), ctx.objectives, c);
                     });
  }
};

// ------------------------------------------------------------------- il

class IlMethod final : public Method {
 public:
  std::string name() const override { return "il"; }
  std::string description() const override {
    return "imitation learning: exhaustive oracle + behaviour cloning + "
           "DAgger sweep; trains on the first application";
  }
  MethodCapabilities capabilities() const override {
    return exhaustive_oracle_caps();
  }

  std::unique_ptr<MethodConfig> default_config() const override {
    return std::make_unique<IlMethodConfig>();
  }

  std::unique_ptr<MethodConfig> config_from_json(
      const json::Value& doc, const std::string& context) const override {
    serde::ObjectReader r(doc, context);
    auto config = std::make_unique<IlMethodConfig>();
    config->grid_divisions =
        r.get_size("grid_divisions", config->grid_divisions);
    config->dagger_rounds =
        r.get_size("dagger_rounds", config->dagger_rounds);
    config->training_passes =
        r.get_size("training_passes", config->training_passes);
    config->learning_rate =
        r.get_f64("learning_rate", config->learning_rate);
    config->exact_oracle = r.get_bool("exact_oracle", config->exact_oracle);
    r.finish();
    require(config->grid_divisions >= 1,
            context + ": grid_divisions must be >= 1");
    require(config->training_passes >= 1,
            context + ": training_passes must be >= 1");
    return config;
  }

  json::Value config_to_json(const MethodConfig& config) const override {
    const auto& c = resolve_config<IlMethodConfig>(*this, &config);
    json::Value out = json::Value::object();
    out.set("grid_divisions", serde::u64_to_json(c.grid_divisions));
    out.set("dagger_rounds", serde::u64_to_json(c.dagger_rounds));
    out.set("training_passes", serde::u64_to_json(c.training_passes));
    out.set("learning_rate", json::Value::number(c.learning_rate));
    out.set("exact_oracle", json::Value::boolean(c.exact_oracle));
    return out;
  }

  std::string canonical_config(const MethodConfig* config) const override {
    if (config == nullptr) return {};
    return canonical_or_empty(
        resolve_config<IlMethodConfig>(*this, config),
        [](const IlMethodConfig& c) {
          std::string out;
          put_u64(out, "il.grid_divisions", c.grid_divisions);
          put_u64(out, "il.dagger_rounds", c.dagger_rounds);
          put_u64(out, "il.training_passes", c.training_passes);
          put_f64(out, "il.learning_rate", c.learning_rate);
          put_bool(out, "il.exact_oracle", c.exact_oracle);
          return out;
        });
  }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    const IlMethodConfig cfg = resolve_config<IlMethodConfig>(*this, config);
    baselines::IlConfig il;
    il.dagger_rounds = cfg.dagger_rounds;
    il.training_passes = cfg.training_passes;
    il.learning_rate = cfg.learning_rate;
    const baselines::OracleFidelity fidelity =
        cfg.exact_oracle ? baselines::OracleFidelity::Exact
                         : baselines::OracleFidelity::FirstOrder;

    const soc::Application& train_app = ctx.apps.front();
    const auto table = oracle_table(ctx, fidelity);
    // Charge the exhaustive oracle pass in app-run equivalents.
    return mlp_sweep(ctx, cfg.grid_divisions, il.policy,
                     table->build_evaluations() / train_app.num_epochs(),
                     [&](std::uint64_t seed) {
                       baselines::IlConfig c = il;
                       c.seed = seed;
                       return baselines::IlTrainer(ctx.platform, train_app,
                                                   ctx.objectives, *table, c);
                     });
  }
};

// ----------------------------------------------------------------- dypo

class DypoMethod final : public Method {
 public:
  std::string name() const override { return "dypo"; }
  std::string description() const override {
    return "DyPO-style clustered-oracle lookup policies (Gupta et al. "
           "TECS'17); trains on the first application";
  }
  MethodCapabilities capabilities() const override {
    return exhaustive_oracle_caps();
  }

  std::unique_ptr<MethodConfig> default_config() const override {
    return std::make_unique<DypoMethodConfig>();
  }

  std::unique_ptr<MethodConfig> config_from_json(
      const json::Value& doc, const std::string& context) const override {
    serde::ObjectReader r(doc, context);
    auto config = std::make_unique<DypoMethodConfig>();
    config->grid_divisions =
        r.get_size("grid_divisions", config->grid_divisions);
    config->num_clusters = r.get_size("num_clusters", config->num_clusters);
    r.finish();
    require(config->grid_divisions >= 1,
            context + ": grid_divisions must be >= 1");
    require(config->num_clusters >= 1,
            context + ": num_clusters must be >= 1");
    return config;
  }

  json::Value config_to_json(const MethodConfig& config) const override {
    const auto& c = resolve_config<DypoMethodConfig>(*this, &config);
    json::Value out = json::Value::object();
    out.set("grid_divisions", serde::u64_to_json(c.grid_divisions));
    out.set("num_clusters", serde::u64_to_json(c.num_clusters));
    return out;
  }

  std::string canonical_config(const MethodConfig* config) const override {
    if (config == nullptr) return {};
    return canonical_or_empty(
        resolve_config<DypoMethodConfig>(*this, config),
        [](const DypoMethodConfig& c) {
          std::string out;
          put_u64(out, "dypo.grid_divisions", c.grid_divisions);
          put_u64(out, "dypo.num_clusters", c.num_clusters);
          return out;
        });
  }

  MethodOutput run(const CellContext& ctx,
                   const MethodConfig* config) const override {
    const DypoMethodConfig cfg =
        resolve_config<DypoMethodConfig>(*this, config);
    const soc::Application& train_app = ctx.apps.front();
    const auto table =
        oracle_table(ctx, baselines::OracleFidelity::FirstOrder);
    runtime::GlobalEvaluator global(ctx.platform, ctx.apps, ctx.objectives,
                                    ctx.eval_config);
    baselines::BaselineFrontResult res;
    res.total_evaluations +=
        table->build_evaluations() / train_app.num_epochs();
    std::vector<baselines::DypoPolicy> policies;
    const auto grid = baselines::scalarization_grid(ctx.objectives.size(),
                                                    cfg.grid_divisions);
    for (std::size_t w = 0; w < grid.size(); ++w) {
      policies.push_back(baselines::dypo_train(
          ctx.platform, train_app, ctx.objectives, *table, grid[w],
          cfg.num_clusters, sweep_seed(ctx.seed, w)));
      res.objectives.push_back(global.evaluate(policies.back()));
      ++res.total_evaluations;
    }
    res.pareto_indices = moo::non_dominated_indices(res.objectives);

    MethodOutput out;
    out.front = res.pareto_front();
    out.evaluations = res.total_evaluations;
    // DyPO policies are lookup tables, not theta vectors, so
    // pareto_thetas stays empty; overhead is timed on the first
    // non-dominated lookup policy directly.
    if (!res.pareto_indices.empty()) {
      out.decision_overhead_us =
          deployed_overhead(ctx, policies[res.pareto_indices.front()]);
    }
    return out;
  }
};

}  // namespace

void register_builtin_methods(MethodRegistry& registry) {
  registry.add(std::make_unique<ParmisMethod>());
  registry.add(std::make_unique<ScalarizationMethod>());
  registry.add(std::make_unique<RlMethod>());
  registry.add(std::make_unique<IlMethod>());
  registry.add(std::make_unique<DypoMethod>());
  registry.add(std::make_unique<GovernorMethod>(
      "performance", "all clusters pinned to max frequency",
      make_governor<policy::PerformanceGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "powersave", "all clusters pinned to min frequency",
      make_governor<policy::PowersaveGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "ondemand", "kernel ondemand governor (load-proportional, jump to "
                  "max above the up threshold)",
      make_governor<policy::OndemandGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "conservative", "kernel conservative governor (one step at a time)",
      make_governor<policy::ConservativeGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "interactive", "interactive governor (fast ramp, slow decay)",
      make_governor<policy::InteractiveGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "schedutil", "schedutil governor (utilization-proportional, 25% "
                   "headroom)",
      make_governor<policy::SchedutilGovernor>));
  registry.add(std::make_unique<GovernorMethod>(
      "random", "uniform random decisions (seeded per cell)", make_random));
}

}  // namespace parmis::methods
