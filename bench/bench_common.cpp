#include "bench_common.hpp"

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>

#include "apps/benchmarks.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "moo/hypervolume.hpp"
#include "moo/pareto.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/evaluator.hpp"

namespace parmis::bench {

methods::MethodConfigSet BenchScale::method_configs() const {
  methods::MethodConfigSet configs;
  configs.set("rl", std::make_shared<methods::RlMethodConfig>(rl));
  configs.set("il", std::make_shared<methods::IlMethodConfig>(il));
  return configs;
}

BenchScale make_scale(bool full) {
  BenchScale s;
  s.full = full;
  if (full) {
    // Paper scale: "maximum of 500 iterations ... converges in at most
    // 300" (Sec. V-B); dense lambda grids for the baselines.
    s.parmis.num_initial = 30;
    s.parmis.max_iterations = 500;
    s.parmis.acq_pool_size = 384;
    s.parmis.acq_refine_steps = 32;
    s.parmis.acquisition.rff_features = 128;
    s.parmis.acquisition.front_sampler.population_size = 48;
    s.parmis.acquisition.front_sampler.generations = 40;
    s.parmis.hyperopt_interval = 25;
    s.parmis.hyperopt_candidates = 32;
    s.rl.episodes = 400;
    s.il.training_passes = 120;
    s.il.dagger_rounds = 3;
    s.rl.grid_divisions = s.il.grid_divisions = 11;
  } else {
    // Scaled defaults: the full bench suite finishes in minutes while
    // preserving every qualitative shape.
    s.parmis.num_initial = 26;
    s.parmis.max_iterations = 100;
    s.parmis.acq_pool_size = 160;
    s.parmis.acq_refine_steps = 12;
    s.parmis.acquisition.rff_features = 80;
    s.parmis.acquisition.front_sampler.population_size = 28;
    s.parmis.acquisition.front_sampler.generations = 20;
    s.parmis.hyperopt_interval = 25;
    s.parmis.hyperopt_candidates = 16;
    s.rl.episodes = 150;
    s.il.training_passes = 40;
    s.il.dagger_rounds = 2;
    s.rl.grid_divisions = s.il.grid_divisions = 6;
  }
  return s;
}

BenchScale scale_from_cli(const CliArgs& args,
                          const std::vector<std::string>& extra_flags) {
  std::vector<std::string> known = {"full", "iterations", "rl-episodes",
                                    "grid"};
  known.insert(known.end(), extra_flags.begin(), extra_flags.end());
  require_known_flags(args, known);
  BenchScale s = make_scale(full_scale_requested(args));
  // Per-run overrides for experimentation.
  s.parmis.max_iterations =
      args.get_count("iterations", s.parmis.max_iterations, 1);
  s.rl.episodes = args.get_count("rl-episodes", s.rl.episodes, 1);
  s.rl.grid_divisions = s.il.grid_divisions =
      args.get_count("grid", s.rl.grid_divisions, 2);
  return s;
}

std::vector<std::string> apps_flag(const CliArgs& args) {
  const std::vector<std::string> names = apps::benchmark_names();
  if (!args.has("apps")) return names;
  std::vector<std::string> out;
  std::stringstream ss(args.get("apps", ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    require(std::find(names.begin(), names.end(), item) != names.end(),
            "--apps: unknown benchmark '" + item + "'");
    require(std::find(out.begin(), out.end(), item) == out.end(),
            "--apps: '" + item + "' listed twice");
    out.push_back(item);
  }
  require(!out.empty(), "--apps expects a comma-separated benchmark list");
  return out;
}

scenario::ScenarioSpec app_scenario(const std::string& name,
                                    const std::string& app,
                                    std::vector<std::string> methods,
                                    const BenchScale& scale) {
  scenario::ScenarioSpec spec;
  spec.name = name;
  spec.benchmark_apps = {app};
  spec.methods = std::move(methods);
  spec.parmis = scale.parmis;
  return spec;
}

exec::CampaignReport run_campaign(std::vector<scenario::ScenarioSpec> scenarios,
                                  const BenchScale& scale, std::uint64_t seed) {
  exec::CampaignConfig config;
  config.scenarios = std::move(scenarios);
  config.num_threads = 0;  // all cores; results do not depend on it
  config.base_seed = seed;
  config.anchor_limit = 0;  // every anchor, as the paper's runs use
  config.method_configs = scale.method_configs();
  exec::CampaignReport report = exec::CampaignRunner(config).run();
  for (const auto& cell : report.cells) {
    require(cell.error.empty(), "cell " + cell.scenario + "/" + cell.method +
                                    " failed: " + cell.error);
  }
  return report;
}

exec::CellResult run_cell(const scenario::ScenarioSpec& spec,
                          const std::string& method, const BenchScale& scale,
                          std::uint64_t seed) {
  exec::CellResult cell = exec::CampaignRunner::run_cell(
      spec, method, seed, /*anchor_limit=*/0, scale.method_configs());
  require(cell.error.empty(), "cell " + spec.name + "/" + method +
                                  " failed: " + cell.error);
  return cell;
}

const exec::CellResult& find_cell(const exec::CampaignReport& report,
                                  const std::string& scenario,
                                  const std::string& method) {
  for (const auto& cell : report.cells) {
    if (cell.scenario == scenario && cell.method == method) return cell;
  }
  throw Error("no cell " + scenario + "/" + method + " in the report");
}

const std::vector<std::string>& paper_governors() {
  static const std::vector<std::string> names = {"ondemand", "performance",
                                                 "interactive", "powersave"};
  return names;
}

int governors_dominated(const exec::CampaignReport& report,
                        const std::string& scenario,
                        const std::vector<num::Vec>& front) {
  int dominated = 0;
  for (const auto& name : paper_governors()) {
    const num::Vec& point = find_cell(report, scenario, name).front.front();
    dominated += std::any_of(front.begin(), front.end(),
                             [&](const num::Vec& p) {
                               return moo::dominates(p, point);
                             });
  }
  return dominated;
}

std::vector<num::Vec> reevaluate(const scenario::ScenarioSpec& spec,
                                 const std::vector<num::Vec>& thetas) {
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  runtime::GlobalEvaluator evaluator(
      platform, scenario::make_applications(spec),
      scenario::make_objectives(spec), scenario::make_evaluator_config(spec));
  policy::MlpPolicy policy(platform.decision_space());
  std::vector<num::Vec> points;
  for (const auto& theta : thetas) {
    policy.set_parameters(theta);
    points.push_back(evaluator.evaluate(policy));
  }
  return moo::pareto_front(points);
}

std::vector<double> normalized_phv(
    const std::vector<std::vector<num::Vec>>& fronts) {
  std::vector<num::Vec> all;
  for (const auto& front : fronts) {
    all.insert(all.end(), front.begin(), front.end());
  }
  const num::Vec ref = moo::default_reference_point(all, 0.1);
  std::vector<double> out;
  for (const auto& front : fronts) out.push_back(moo::hypervolume(front, ref));
  const double base = out.front();
  for (double& v : out) v /= base;
  return out;
}

double min_chunk_seconds(std::size_t chunks,
                         const std::function<void(std::size_t)>& chunk) {
  require(chunks > 0, "min_chunk_seconds: need at least one chunk");
  chunk(0);
  double best = 0.0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const Stopwatch wall;
    chunk(c);
    const double s = wall.seconds();
    if (c == 0 || s < best) best = s;
  }
  return best;
}

void print_header(const std::string& title, const BenchScale& scale,
                  const soc::SocSpec& spec) {
  std::cout << "=== " << title << " ===\n"
            << "platform: " << spec.name << " ("
            << spec.decision_space_size() << " decisions/epoch)  scale: "
            << (scale.full ? "FULL (paper)" : "default (scaled)")
            << "  [parmis " << scale.parmis.max_iterations
            << " iters, baselines " << scale.rl.grid_divisions
            << "-point lambda grid]\n\n";
}

}  // namespace parmis::bench
