// Quickstart: learn Pareto-frontier DRM policies for one application.
//
// This is the smallest complete PaRMIS workflow (paper Fig. 1):
//   1. build the simulated Exynos 5422 platform,
//   2. pick an application (qsort) and objectives (time, energy),
//   3. run PaRMIS for a small budget,
//   4. print the discovered Pareto front and compare it against the four
//      stock governors,
//   5. pick one policy from the front for a "battery low" preference.
//
// Run:  ./quickstart [--iterations N] [--app NAME] [--seed S]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "moo/hypervolume.hpp"
#include "policy/governors.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/selector.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  require_known_flags(args, {"app", "iterations", "seed"});
  const std::string app_name = args.get("app", "qsort");
  const std::size_t iterations = args.get_count("iterations", 60, 1);
  const std::uint64_t seed = args.get_count("seed", 7);

  // 1. Platform: the simulated Odroid-XU3.
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  std::cout << "Platform: " << spec.name << " with "
            << platform.decision_space().size()
            << " candidate DRM decisions per epoch\n";

  // 2. Application and objectives.
  const soc::Application app = apps::make_benchmark(app_name);
  std::cout << "Application: " << app.name << " (" << app.num_epochs()
            << " decision epochs, " << app.total_instructions_g()
            << " G-instructions)\n\n";
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());

  // 3. PaRMIS search.
  core::ParmisConfig config;
  config.max_iterations = iterations;
  config.seed = seed;
  config.initial_thetas = problem.anchor_thetas();
  core::Parmis optimizer(problem.evaluation_fn(), problem.theta_dim(),
                         problem.num_objectives(), config);
  const core::ParmisResult result = optimizer.run();

  // 4. Report the Pareto front.
  Table front_table({"policy", "time_s", "energy_j"});
  const auto front = result.pareto_front();
  for (std::size_t i = 0; i < front.size(); ++i) {
    front_table.begin_row()
        .add("parmis-" + std::to_string(i))
        .add(front[i][0], 3)
        .add(front[i][1], 3);
  }
  std::cout << "PaRMIS Pareto front after " << result.objectives.size()
            << " policy evaluations:\n";
  front_table.print(std::cout);

  // Governors for context (each is a single trade-off point).
  runtime::Evaluator evaluator(platform);
  Table gov_table({"governor", "time_s", "energy_j"});
  const soc::DecisionSpace& space = platform.decision_space();
  policy::PerformanceGovernor perf(space);
  policy::PowersaveGovernor powersave(space);
  policy::OndemandGovernor ondemand(space);
  policy::InteractiveGovernor interactive(space);
  for (policy::Policy* gov :
       {static_cast<policy::Policy*>(&perf),
        static_cast<policy::Policy*>(&powersave),
        static_cast<policy::Policy*>(&ondemand),
        static_cast<policy::Policy*>(&interactive)}) {
    const runtime::RunMetrics m = evaluator.run(*gov, app);
    gov_table.begin_row().add(gov->name()).add(m.time_s, 3).add(m.energy_j,
                                                                3);
  }
  std::cout << "\nStock governors on the same application:\n";
  gov_table.print(std::cout);

  // 5. Online phase: select a policy for a battery-low preference
  //    (energy weighted 4x more than time).
  runtime::PolicySelector selector(front);
  const std::size_t chosen = selector.select({1.0, 4.0});
  std::cout << "\nBattery-low preference selects parmis-" << chosen
            << " (time " << format_double(front[chosen][0], 3) << " s, energy "
            << format_double(front[chosen][1], 3) << " J)\n";
  const std::size_t knee = selector.knee_point();
  std::cout << "Knee-point (no preference) selects parmis-" << knee << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
