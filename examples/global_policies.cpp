// Global Pareto-frontier policies (paper Sec. V-D).
//
// Application-specific policies do not scale: "not all applications are
// known at design-time."  This example trains PaRMIS once over a set of
// training applications (normalized multi-app objectives), then deploys
// the resulting global policy set on a HELD-OUT application it never saw
// during training — the generalization the paper's Fig. 5 argues for.
//
// Run:  ./global_policies [--iterations N] [--holdout NAME]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "policy/governors.hpp"
#include "moo/pareto.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/selector.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  require_known_flags(args, {"iterations", "holdout"});
  const std::size_t iterations = args.get_count("iterations", 60, 1);
  const std::string holdout = args.get("holdout", "strsearch");
  const soc::Application unseen = apps::make_benchmark(holdout);

  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);

  // Training set: every benchmark except the hold-out.
  std::vector<soc::Application> train_apps;
  for (const auto& name : apps::benchmark_names()) {
    if (name != holdout) train_apps.push_back(apps::make_benchmark(name));
  }
  std::cout << "training global policies on " << train_apps.size()
            << " applications (hold-out: " << holdout << ")\n";

  core::DrmPolicyProblem problem(platform, train_apps,
                                 runtime::time_energy_objectives());
  core::ParmisConfig config;
  config.max_iterations = iterations;
  config.initial_thetas = problem.anchor_thetas();
  config.seed = 43;
  core::Parmis optimizer(problem.evaluation_fn(), problem.theta_dim(), 2,
                         config);
  const core::ParmisResult result = optimizer.run();

  std::cout << "global Pareto set: " << result.pareto_indices.size()
            << " policies (normalized objectives; 1.0 = the default "
               "mid-frequency configuration)\n";
  Table global_table({"policy", "norm_time", "norm_energy"});
  std::size_t i = 0;
  for (const auto& p : result.pareto_front()) {
    global_table.begin_row()
        .add("global-" + std::to_string(i++))
        .add(p[0], 4)
        .add(p[1], 4);
  }
  global_table.print(std::cout);

  // --- deploy on the held-out application ---
  runtime::Evaluator evaluator(platform);
  std::vector<num::Vec> points;
  for (const auto& theta : result.pareto_thetas()) {
    policy::MlpPolicy p = problem.make_policy(theta);
    points.push_back(
        evaluator.evaluate(p, unseen, runtime::time_energy_objectives()));
  }
  const auto front = moo::pareto_front(points);

  std::cout << "\n=== the same policies on the UNSEEN app '" << holdout
            << "' ===\n";
  Table holdout_table({"point", "time_s", "energy_j"});
  i = 0;
  for (const auto& p : front) {
    holdout_table.begin_row()
        .add(std::to_string(i++))
        .add(p[0], 3)
        .add(p[1], 3);
  }
  holdout_table.print(std::cout);

  // Governors on the hold-out for context.
  policy::PerformanceGovernor perf(platform.decision_space());
  policy::PowersaveGovernor save(platform.decision_space());
  const runtime::RunMetrics mp = evaluator.run(perf, unseen);
  const runtime::RunMetrics ms = evaluator.run(save, unseen);
  std::cout << "\ncontext: performance governor (" << format_double(mp.time_s, 3)
            << " s, " << format_double(mp.energy_j, 3) << " J), powersave ("
            << format_double(ms.time_s, 3) << " s, "
            << format_double(ms.energy_j, 3) << " J)\n"
            << "expected: the transferred front spans a trade-off between "
               "(and often beyond) the two governor extremes, without "
               "ever training on this app.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
