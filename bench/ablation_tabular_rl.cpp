// Ablation A5: RL policy representation — lookup table vs MLP.
//
// Paper Sec. V-F: "contrary to existing implementation that employs look
// up table for RL [Kim et al. TVLSI'17], we use the same function
// approximator to implement both RL and IL."  This ablation quantifies
// what that representation change is worth: the tabular Q-learner (the
// cited works' actual design) vs the REINFORCE-trained MLP, at identical
// episode budgets and scalarization grids, plus their storage footprints.
//
// The MLP sweep is the registry's "rl" method run as campaign cells;
// the tabular sweep measures through the same per-app GlobalEvaluator.
//
// Usage: ablation_tabular_rl [--full]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "baselines/rl_tabular.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "policy/mlp_policy.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header("Ablation A5: RL representation (LUT vs MLP)", scale,
                      spec);
  constexpr std::uint64_t kSeed = 141;

  std::vector<scenario::ScenarioSpec> scenarios;
  for (const std::string name : {"qsort", "kmeans", "dijkstra"}) {
    scenarios.push_back(bench::app_scenario("a5-" + name, name, {"rl"}, scale));
  }
  const exec::CampaignReport report =
      bench::run_campaign(scenarios, scale, kSeed);

  Table table({"app", "mlp_reinforce", "tabular_q"});
  for (const auto& app_spec : scenarios) {
    soc::Platform platform(spec);  // the scenarios' noise-free Exynos
    baselines::TabularQConfig q_cfg;
    q_cfg.episodes = scale.rl.episodes;
    q_cfg.seed = kSeed;
    const auto lut = baselines::tabular_q_pareto_front(
        platform, scenario::make_applications(app_spec).front(),
        scenario::make_objectives(app_spec), scale.rl.grid_divisions, q_cfg);

    const std::vector<double> norm = bench::normalized_phv(
        {bench::find_cell(report, app_spec.name, "rl").front,
         lut.pareto_front()});
    table.begin_row()
        .add(app_spec.benchmark_apps.front())
        .add(norm[0], 3)
        .add(norm[1], 3);
    std::cerr << "[A5] " << app_spec.benchmark_apps.front() << " done\n";
  }
  table.print(std::cout);

  // Storage comparison (the paper's practical argument).
  soc::Platform platform(spec);
  policy::MlpPolicy mlp(platform.decision_space());
  baselines::TabularQConfig q_cfg;
  q_cfg.episodes = 1;
  baselines::TabularQTrainer trainer(platform, apps::make_benchmark("qsort"),
                                     runtime::time_energy_objectives(), q_cfg);
  const auto policy = trainer.train({0.5, 0.5});
  std::cout << "\nstorage per policy: MLP " << mlp.serialized_bytes() / 1024
            << " KB vs LUT " << policy.table_bytes() / 1024
            << " KB (paper Sec. V-F: the MLP representation replaces the "
               "lookup table)\n"
            << "expected: LUT within a few percent of the MLP on PHV at "
               "equal budgets, at a larger storage footprint.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
