// Stock-governor deep dive: run all four Linux governors and a learned
// PaRMIS policy across every benchmark and report per-app behaviour.
//
// This reproduces the motivation table behind the paper's introduction:
// heuristic governors provide one fixed trade-off each ("interactive and
// ondemand ... only provide a single trade-off for performance and
// energy"), while a single learned Pareto set covers the whole range.
// Also shows the counters a governor actually sees (Table I features).
//
// Run:  ./governor_comparison [--policy-iterations N]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "policy/governors.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/selector.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  require_known_flags(args, {"policy-iterations"});
  const std::size_t iterations = args.get_count("policy-iterations", 50, 1);

  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  runtime::Evaluator evaluator(platform);

  policy::OndemandGovernor ondemand(space);
  policy::InteractiveGovernor interactive(space);
  policy::PerformanceGovernor performance(space);
  policy::PowersaveGovernor powersave(space);
  policy::SchedutilGovernor schedutil(space);

  Table table({"app", "governor", "time_s", "energy_j", "avg_w", "ppw"});
  for (const auto& name : apps::benchmark_names()) {
    const soc::Application app = apps::make_benchmark(name);
    for (policy::Policy* gov :
         {static_cast<policy::Policy*>(&performance),
          static_cast<policy::Policy*>(&ondemand),
          static_cast<policy::Policy*>(&interactive),
          static_cast<policy::Policy*>(&schedutil),
          static_cast<policy::Policy*>(&powersave)}) {
      const runtime::RunMetrics m = evaluator.run(*gov, app);
      table.begin_row()
          .add(name)
          .add(gov->name())
          .add(m.time_s, 3)
          .add(m.energy_j, 3)
          .add(m.avg_power_w, 3)
          .add(m.ppw_mean, 3);
    }
  }
  std::cout << "=== stock governors across all 12 benchmarks ===\n";
  table.print(std::cout);

  // One learned policy set on one app, for contrast.
  const soc::Application app = apps::make_benchmark("kmeans");
  core::DrmPolicyProblem problem(platform, app,
                                 runtime::time_energy_objectives());
  core::ParmisConfig config;
  config.max_iterations = iterations;
  config.initial_thetas = problem.anchor_thetas();
  config.seed = 33;
  core::Parmis optimizer(problem.evaluation_fn(), problem.theta_dim(), 2,
                         config);
  const core::ParmisResult result = optimizer.run();

  std::cout << "\n=== one PaRMIS run on kmeans covers the whole governor "
               "range ===\n";
  Table learned({"policy", "time_s", "energy_j"});
  std::size_t i = 0;
  for (const auto& p : result.pareto_front()) {
    learned.begin_row()
        .add("parmis-" + std::to_string(i++))
        .add(p[0], 3)
        .add(p[1], 3);
  }
  learned.print(std::cout);

  // What the governor sees: Table I counters for one epoch.
  const soc::EpochResult r =
      platform.run_epoch(app.epochs[0], space.default_decision());
  std::cout << "\n=== Table I state features for kmeans epoch 0 ===\n";
  Table counters({"feature", "squashed_value"});
  const num::Vec f = r.counters.to_features();
  for (std::size_t j = 0; j < f.size(); ++j) {
    counters.begin_row()
        .add(soc::HwCounters::feature_names()[j])
        .add(f[j], 4);
  }
  counters.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
