#include "scenario/scenario.hpp"

#include <algorithm>
#include <utility>

#include "apps/benchmarks.hpp"
#include "common/canonical.hpp"
#include "common/error.hpp"
#include "methods/registry.hpp"
#include "soc/decision.hpp"

namespace parmis::scenario {

void ScenarioSpec::validate() const {
  // Every message leads with the offending scenario's name: a failing
  // spec inside a multi-scenario campaign or plan file must identify
  // itself, not just the bad field.
  const std::string who =
      "scenario \"" + (name.empty() ? "(unnamed)" : name) + "\": ";
  require(!name.empty(), who + "empty name");
  const auto& variants = soc::SocSpec::variant_names();
  require(std::find(variants.begin(), variants.end(), platform) !=
              variants.end(),
          who + "unknown platform variant: " + platform);
  require(platform_config.sensor_noise_sd >= 0.0,
          who + "sensor_noise_sd must be >= 0");
  require(!benchmark_apps.empty() || generated.has_value(),
          who + "empty application suite");
  const auto& bench_names = apps::benchmark_names();
  for (const auto& app : benchmark_apps) {
    require(std::find(bench_names.begin(), bench_names.end(), app) !=
                bench_names.end(),
            who + "unknown benchmark app: " + app);
  }
  if (generated.has_value()) {
    const WorkloadGenConfig& g = *generated;
    require(g.num_apps >= 1, who + "generated.num_apps must be >= 1");
    require(g.min_phases >= 1 && g.min_phases <= g.max_phases,
            who + "generated phase bounds invalid (need 1 <= min_phases "
                  "<= max_phases)");
    require(g.min_run_length >= 1 && g.min_run_length <= g.max_run_length,
            who + "generated run-length bounds invalid (need 1 <= "
                  "min_run_length <= max_run_length)");
    require(g.jitter >= 0.0, who + "generated.jitter must be >= 0");
  }
  require(objectives.size() >= 2, who + "need at least two objectives");
  if (thermal) {
    require(thermal_params.release_point_c <= thermal_params.trip_point_c,
            who + "thermal release point must not exceed the trip point");
  }
  require(!methods.empty(), who + "no methods");
  const methods::MethodRegistry& registry =
      methods::MethodRegistry::instance();
  // Cheap (O(clusters)) platform-size probe for the capability check
  // below; `platform` was verified against the variant registry above.
  const soc::SocSpec soc_spec = soc::SocSpec::by_name(platform);
  const std::size_t space_size = soc::DecisionSpace(soc_spec).size();
  for (const auto& m : methods) {
    const methods::Method* method = registry.find(m);
    if (method == nullptr) {
      require(false, who + "unknown method: " + m + " (registered: " +
                         registry.joined_names() + ")");
    }
    // Structural method x scenario compatibility (e.g. RL/IL have no
    // reward/oracle for PPW; IL/DyPO cannot sweep a 30M-configuration
    // platform): fail here, at spec/plan validation time, naming the
    // scenario and the method — never mid-campaign inside a cell.
    method->check_objectives(objectives, who);
    method->check_decision_space(space_size, who);
  }
  const std::string parmis_error = core::parmis_config_error(parmis);
  require(parmis_error.empty(), who + "parmis: " + parmis_error);
  // The front-sampler budget is only read deep inside a PaRMIS cell's
  // acquisition; check it here so a bad plan fails at load.
  const core::AcquisitionConfig& acq = parmis.acquisition;
  require(acq.num_mc_samples >= 1,
          who + "parmis.acquisition.num_mc_samples must be >= 1");
  require(acq.rff_features >= 1,
          who + "parmis.acquisition.rff_features must be >= 1");
  const std::string sampler_error = moo::nsga2_config_error(acq.front_sampler);
  require(sampler_error.empty(),
          who + "parmis.acquisition.front_sampler: " + sampler_error);
}

namespace {

using canonical::put_bool;
using canonical::put_f64;
using canonical::put_str;
using canonical::put_u64;

void put_epoch_distribution(std::string& out, const EpochDistribution& d) {
  put_str(out, "arch.label", d.label);
  put_f64(out, "arch.instr_min", d.instructions_g_min);
  put_f64(out, "arch.instr_max", d.instructions_g_max);
  put_f64(out, "arch.par_min", d.parallel_fraction_min);
  put_f64(out, "arch.par_max", d.parallel_fraction_max);
  put_f64(out, "arch.mem_min", d.mem_bytes_per_instr_min);
  put_f64(out, "arch.mem_max", d.mem_bytes_per_instr_max);
  put_f64(out, "arch.branch_min", d.branch_miss_rate_min);
  put_f64(out, "arch.branch_max", d.branch_miss_rate_max);
  put_f64(out, "arch.ilp_min", d.ilp_min);
  put_f64(out, "arch.ilp_max", d.ilp_max);
  put_f64(out, "arch.big_min", d.big_affinity_min);
  put_f64(out, "arch.big_max", d.big_affinity_max);
  put_f64(out, "arch.duty_min", d.duty_min);
  put_f64(out, "arch.duty_max", d.duty_max);
}

void put_parmis_config(std::string& out, const core::ParmisConfig& c) {
  // parmis.seed, initial_thetas, pool, track_convergence, and
  // phv_reference are excluded: run_cell overrides the seed and the
  // initial thetas (anchor_thetas truncated to the keyed anchor_limit)
  // for every cell, and the rest cannot change the returned
  // thetas/objectives.
  put_u64(out, "parmis.num_initial", c.num_initial);
  put_u64(out, "parmis.max_iterations", c.max_iterations);
  put_f64(out, "parmis.theta_bound", c.theta_bound);
  put_str(out, "parmis.kernel", c.kernel);
  put_f64(out, "parmis.noise_variance", c.noise_variance);
  put_u64(out, "parmis.hyperopt_interval", c.hyperopt_interval);
  put_u64(out, "parmis.hyperopt_candidates", c.hyperopt_candidates);
  put_u64(out, "parmis.acq_pool_size", c.acq_pool_size);
  put_u64(out, "parmis.acq_refine_steps", c.acq_refine_steps);
  put_f64(out, "parmis.perturbation_sd", c.perturbation_sd);
  put_u64(out, "acq.num_mc_samples", c.acquisition.num_mc_samples);
  put_u64(out, "acq.rff_features", c.acquisition.rff_features);
  const moo::Nsga2Config& fs = c.acquisition.front_sampler;
  put_u64(out, "acq.fs.population_size", fs.population_size);
  put_u64(out, "acq.fs.generations", fs.generations);
  put_f64(out, "acq.fs.crossover_probability", fs.crossover_probability);
  put_f64(out, "acq.fs.sbx_eta", fs.sbx_eta);
  put_f64(out, "acq.fs.mutation_probability", fs.mutation_probability);
  put_f64(out, "acq.fs.mutation_eta", fs.mutation_eta);
  put_u64(out, "acq.fs.seed", fs.seed);
}

}  // namespace

std::string canonical_serialize(const ScenarioSpec& spec) {
  std::string out;
  out.reserve(2048);
  // Version tag: bump whenever the spec schema, this encoding, or the
  // semantics of cell evaluation change, so content-addressed cache
  // keys derived from old serializations can never alias new results.
  out += "parmis-scenario-canonical v1\n";
  put_str(out, "name", spec.name);
  put_str(out, "platform", spec.platform);
  put_f64(out, "platform.sensor_noise_sd",
          spec.platform_config.sensor_noise_sd);
  put_u64(out, "platform.noise_seed", spec.platform_config.noise_seed);
  put_bool(out, "platform.charge_dvfs_transitions",
           spec.platform_config.charge_dvfs_transitions);
  put_u64(out, "benchmark_apps", spec.benchmark_apps.size());
  for (const auto& app : spec.benchmark_apps) put_str(out, "app", app);
  put_bool(out, "generated", spec.generated.has_value());
  if (spec.generated.has_value()) {
    const WorkloadGenConfig& g = *spec.generated;
    put_u64(out, "gen.num_apps", g.num_apps);
    put_u64(out, "gen.min_phases", g.min_phases);
    put_u64(out, "gen.max_phases", g.max_phases);
    put_u64(out, "gen.min_run_length", g.min_run_length);
    put_u64(out, "gen.max_run_length", g.max_run_length);
    put_f64(out, "gen.jitter", g.jitter);
    put_str(out, "gen.name_prefix", g.name_prefix);
    put_u64(out, "gen.archetypes", g.archetypes.size());
    for (const auto& arch : g.archetypes) put_epoch_distribution(out, arch);
  }
  put_u64(out, "workload_seed", spec.workload_seed);
  put_u64(out, "objectives", spec.objectives.size());
  for (runtime::ObjectiveKind kind : spec.objectives) {
    put_u64(out, "objective",
            static_cast<std::uint64_t>(static_cast<int>(kind)));
  }
  put_bool(out, "thermal", spec.thermal);
  if (spec.thermal) {
    put_f64(out, "thermal.ambient_c", spec.thermal_params.ambient_c);
    put_f64(out, "thermal.resistance_c_per_w",
            spec.thermal_params.resistance_c_per_w);
    put_f64(out, "thermal.capacitance_j_per_c",
            spec.thermal_params.capacitance_j_per_c);
    put_f64(out, "thermal.trip_point_c", spec.thermal_params.trip_point_c);
    put_f64(out, "thermal.release_point_c",
            spec.thermal_params.release_point_c);
  }
  put_parmis_config(out, spec.parmis);
  return out;
}

soc::SocSpec make_platform_spec(const ScenarioSpec& spec) {
  return soc::SocSpec::by_name(spec.platform);
}

std::vector<soc::Application> make_applications(const ScenarioSpec& spec) {
  std::vector<soc::Application> apps;
  apps.reserve(spec.benchmark_apps.size());
  for (const auto& name : spec.benchmark_apps) {
    apps.push_back(apps::make_benchmark(name));
  }
  if (spec.generated.has_value()) {
    auto synth = generate_applications(*spec.generated, spec.workload_seed);
    for (auto& app : synth) apps.push_back(std::move(app));
  }
  return apps;
}

std::vector<runtime::Objective> make_objectives(const ScenarioSpec& spec) {
  std::vector<runtime::Objective> objectives;
  objectives.reserve(spec.objectives.size());
  for (runtime::ObjectiveKind kind : spec.objectives) {
    objectives.emplace_back(kind);
  }
  return objectives;
}

runtime::EvaluatorConfig make_evaluator_config(const ScenarioSpec& spec) {
  runtime::EvaluatorConfig config;
  config.enable_thermal = spec.thermal;
  config.thermal_params = spec.thermal_params;
  return config;
}

core::ParmisConfig campaign_parmis_budget(bool full) {
  core::ParmisConfig config;
  if (full) {
    config.num_initial = 12;
    config.max_iterations = 100;
    return config;
  }
  // A campaign multiplies cells, so each PaRMIS run gets a deliberately
  // small budget: enough iterations for the GP + acquisition loop to be
  // exercised end to end, small enough that a >= 8-scenario suite
  // finishes in seconds.
  config.num_initial = 4;
  config.max_iterations = 4;
  config.acq_pool_size = 32;
  config.acq_refine_steps = 4;
  config.hyperopt_interval = 100;  // skip hyperopt inside the tiny budget
  config.hyperopt_candidates = 4;
  config.acquisition.rff_features = 32;
  config.acquisition.front_sampler.population_size = 16;
  config.acquisition.front_sampler.generations = 8;
  return config;
}

namespace {

ScenarioSpec base_scenario(const std::string& name,
                           const std::string& description) {
  ScenarioSpec s;
  s.name = name;
  s.description = description;
  s.parmis = campaign_parmis_budget();
  return s;
}

WorkloadGenConfig small_synthetic(std::size_t num_apps) {
  WorkloadGenConfig gen;
  gen.num_apps = num_apps;
  gen.min_phases = 2;
  gen.max_phases = 3;
  gen.min_run_length = 2;
  gen.max_run_length = 4;
  return gen;
}

ScenarioSpec xu3_mibench_te() {
  ScenarioSpec s = base_scenario(
      "xu3-mibench-te",
      "Odroid-XU3, four MiBench apps, time/energy (paper Sec. V-C)");
  s.benchmark_apps = {"basicmath", "dijkstra", "qsort", "sha"};
  return s;
}

ScenarioSpec xu3_cortex_ppw() {
  ScenarioSpec s = base_scenario(
      "xu3-cortex-ppw",
      "Odroid-XU3, CortexSuite apps, time/PPW (paper Sec. V-E)");
  s.benchmark_apps = {"kmeans", "spectral", "motionest", "pca"};
  s.objectives = {runtime::ObjectiveKind::ExecutionTime,
                  runtime::ObjectiveKind::PPW};
  return s;
}

ScenarioSpec xu3_all12_te() {
  ScenarioSpec s = base_scenario(
      "xu3-all12-te",
      "Odroid-XU3, all 12 paper apps, global time/energy (paper Sec. V-D)");
  s.benchmark_apps = apps::benchmark_names();
  return s;
}

ScenarioSpec xu3_thermal() {
  ScenarioSpec s = base_scenario(
      "xu3-thermal-tpp",
      "Odroid-XU3 with the RC thermal model: time/energy/peak-power");
  s.benchmark_apps = {"fft", "aes", "kmeans"};
  s.objectives = {runtime::ObjectiveKind::ExecutionTime,
                  runtime::ObjectiveKind::Energy,
                  runtime::ObjectiveKind::PeakPower};
  s.thermal = true;
  return s;
}

ScenarioSpec xu3_synthetic_te() {
  ScenarioSpec s = base_scenario(
      "xu3-synthetic-te",
      "Odroid-XU3, procedurally generated apps only, time/energy");
  s.generated = small_synthetic(4);
  s.workload_seed = 1001;
  return s;
}

ScenarioSpec xu3_noisy_te() {
  ScenarioSpec s = base_scenario(
      "xu3-noisy-te",
      "Odroid-XU3 with INA231-like sensor noise, time/energy");
  s.benchmark_apps = {"blowfish", "strsearch", "qsort"};
  s.platform_config.sensor_noise_sd = 0.03;
  return s;
}

ScenarioSpec manycore_mixed_te() {
  ScenarioSpec s = base_scenario(
      "manycore-mixed-te",
      "16-core 4-cluster platform, paper + synthetic mix, time/energy");
  s.platform = "manycore16";
  s.benchmark_apps = {"kmeans", "fft"};
  s.generated = small_synthetic(2);
  s.workload_seed = 2002;
  return s;
}

ScenarioSpec manycore_synth_eppw() {
  ScenarioSpec s = base_scenario(
      "manycore-synthetic-eppw",
      "16-core platform, synthetic suite, energy/PPW");
  s.platform = "manycore16";
  s.generated = small_synthetic(3);
  s.workload_seed = 2003;
  s.objectives = {runtime::ObjectiveKind::Energy,
                  runtime::ObjectiveKind::PPW};
  return s;
}

ScenarioSpec mobile3_interactive_ppw() {
  ScenarioSpec s = base_scenario(
      "mobile3-interactive-ppw",
      "3-cluster mobile SoC, bursty synthetic + paper apps, time/PPW");
  s.platform = "mobile3";
  s.benchmark_apps = {"strsearch", "aes"};
  s.generated = small_synthetic(2);
  s.workload_seed = 3003;
  s.objectives = {runtime::ObjectiveKind::ExecutionTime,
                  runtime::ObjectiveKind::PPW};
  s.methods = {"parmis", "performance", "powersave", "interactive",
               "schedutil"};
  return s;
}

ScenarioSpec mobile3_edp() {
  ScenarioSpec s = base_scenario(
      "mobile3-edp",
      "3-cluster mobile SoC, time/EDP with DVFS-transition charging");
  s.platform = "mobile3";
  s.benchmark_apps = {"basicmath", "motionest"};
  s.generated = small_synthetic(1);
  s.workload_seed = 3004;
  s.objectives = {runtime::ObjectiveKind::ExecutionTime,
                  runtime::ObjectiveKind::EDP};
  return s;
}

// One table drives the whole registry: lookup, the name catalogue, and
// all_scenarios() cannot drift apart.  Adding a scenario = one factory
// function + one row here.
using ScenarioFactory = ScenarioSpec (*)();

const std::vector<std::pair<std::string, ScenarioFactory>>&
scenario_table() {
  static const std::vector<std::pair<std::string, ScenarioFactory>> table = {
      {"xu3-mibench-te", xu3_mibench_te},
      {"xu3-cortex-ppw", xu3_cortex_ppw},
      {"xu3-all12-te", xu3_all12_te},
      {"xu3-thermal-tpp", xu3_thermal},
      {"xu3-synthetic-te", xu3_synthetic_te},
      {"xu3-noisy-te", xu3_noisy_te},
      {"manycore-mixed-te", manycore_mixed_te},
      {"manycore-synthetic-eppw", manycore_synth_eppw},
      {"mobile3-interactive-ppw", mobile3_interactive_ppw},
      {"mobile3-edp", mobile3_edp},
  };
  return table;
}

}  // namespace

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& [name, factory] : scenario_table()) n.push_back(name);
    return n;
  }();
  return names;
}

ScenarioSpec make_scenario(const std::string& name) {
  for (const auto& [key, factory] : scenario_table()) {
    if (key != name) continue;
    ScenarioSpec s = factory();
    ensure(s.name == key, "scenario registry: factory name mismatch for " +
                              key + " (got " + s.name + ")");
    s.validate();
    return s;
  }
  require(false, "unknown scenario: " + name);
  return {};  // unreachable
}

std::vector<ScenarioSpec> all_scenarios() {
  std::vector<ScenarioSpec> specs;
  specs.reserve(scenario_names().size());
  for (const auto& name : scenario_names()) {
    specs.push_back(make_scenario(name));
  }
  return specs;
}

}  // namespace parmis::scenario
