#include "bench_common.hpp"

#include <iostream>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "moo/hypervolume.hpp"
#include "moo/pareto.hpp"
#include "policy/governors.hpp"
#include "runtime/evaluator.hpp"

namespace parmis::bench {

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
    s.lambda_grid = 11;
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
    s.lambda_grid = 6;
  }
  return s;
}

BenchScale scale_from_cli(const CliArgs& args) {
  BenchScale s = make_scale(full_scale_requested(args));
  // Per-run overrides for experimentation.
  s.parmis.max_iterations = static_cast<std::size_t>(args.get_int(
      "iterations", static_cast<int>(s.parmis.max_iterations)));
  s.rl.episodes = static_cast<std::size_t>(
      args.get_int("rl-episodes", static_cast<int>(s.rl.episodes)));
  s.lambda_grid = static_cast<std::size_t>(
      args.get_int("grid", static_cast<int>(s.lambda_grid)));
  return s;
}

MethodRun run_parmis(soc::Platform& platform, const soc::Application& app,
                     const std::vector<runtime::Objective>& objectives,
                     const BenchScale& scale, std::uint64_t seed) {
  core::DrmPolicyProblem problem(platform, app, objectives);
  core::ParmisConfig cfg = scale.parmis;
  cfg.seed = seed;
  cfg.initial_thetas = problem.anchor_thetas();
  core::Parmis optimizer(problem.evaluation_fn(), problem.theta_dim(),
                         problem.num_objectives(), cfg);
  const core::ParmisResult res = optimizer.run();

  MethodRun out;
  out.method = "parmis";
  out.objectives = res.objectives;
  out.front = res.pareto_front();
  out.thetas = res.pareto_thetas();
  out.phv_history = res.phv_history;
  out.evaluations = res.objectives.size();
  return out;
}

MethodRun run_rl(soc::Platform& platform, const soc::Application& app,
                 const std::vector<runtime::Objective>& objectives,
                 const BenchScale& scale, std::uint64_t seed) {
  baselines::RlConfig cfg = scale.rl;
  cfg.seed = seed;
  const baselines::BaselineFrontResult res = baselines::rl_pareto_front(
      platform, app, objectives, scale.lambda_grid, cfg);
  MethodRun out;
  out.method = "rl";
  out.objectives = res.objectives;
  out.front = res.pareto_front();
  for (std::size_t i : res.pareto_indices) out.thetas.push_back(res.thetas[i]);
  out.evaluations = res.total_evaluations;
  return out;
}

MethodRun run_il(soc::Platform& platform, const soc::Application& app,
                 const std::vector<runtime::Objective>& objectives,
                 const BenchScale& scale, std::uint64_t seed) {
  baselines::IlConfig cfg = scale.il;
  cfg.seed = seed;
  const baselines::BaselineFrontResult res = baselines::il_pareto_front(
      platform, app, objectives, scale.lambda_grid, cfg);
  MethodRun out;
  out.method = "il";
  out.objectives = res.objectives;
  out.front = res.pareto_front();
  for (std::size_t i : res.pareto_indices) out.thetas.push_back(res.thetas[i]);
  out.evaluations = res.total_evaluations;
  return out;
}

MethodRun reevaluate(const MethodRun& run, soc::Platform& platform,
                     const soc::Application& app,
                     const std::vector<runtime::Objective>& objectives) {
  MethodRun out;
  out.method = run.method;
  runtime::Evaluator evaluator(platform);
  policy::MlpPolicy policy(platform.decision_space());
  for (const auto& theta : run.thetas) {
    policy.set_parameters(theta);
    out.objectives.push_back(evaluator.evaluate(policy, app, objectives));
    out.thetas.push_back(theta);
    ++out.evaluations;
  }
  out.front = moo::pareto_front(out.objectives);
  return out;
}

std::vector<std::pair<std::string, num::Vec>> governor_points(
    soc::Platform& platform, const soc::Application& app,
    const std::vector<runtime::Objective>& objectives) {
  const soc::DecisionSpace& space = platform.decision_space();
  runtime::Evaluator evaluator(platform);
  policy::OndemandGovernor ondemand(space);
  policy::PerformanceGovernor performance(space);
  policy::InteractiveGovernor interactive(space);
  policy::PowersaveGovernor powersave(space);
  std::vector<std::pair<std::string, num::Vec>> out;
  for (policy::Policy* gov :
       {static_cast<policy::Policy*>(&ondemand),
        static_cast<policy::Policy*>(&performance),
        static_cast<policy::Policy*>(&interactive),
        static_cast<policy::Policy*>(&powersave)}) {
    out.emplace_back(gov->name(),
                     evaluator.evaluate(*gov, app, objectives));
  }
  return out;
}

num::Vec shared_reference(const std::vector<std::vector<num::Vec>>& fronts) {
  std::vector<num::Vec> all;
  for (const auto& front : fronts) {
    all.insert(all.end(), front.begin(), front.end());
  }
  return moo::default_reference_point(all, 0.1);
}

double phv(const std::vector<num::Vec>& front, const num::Vec& ref) {
  return moo::hypervolume(front, ref);
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
            << " iters, baselines " << scale.lambda_grid
            << "-point lambda grid]\n\n";
}

}  // namespace parmis::bench
