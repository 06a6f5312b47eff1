// Fig. 3 reproduction: application-specific Pareto fronts for
// (a) Qsort and (b) PCA, objectives = (execution time, energy), showing
// PaRMIS vs RL vs IL fronts and the four stock governor points.
//
// Paper shapes to reproduce:
//  1. the PaRMIS front dominates the RL and IL fronts,
//  2. PaRMIS spans a wider trade-off range (lower min time than both),
//  3. PaRMIS dominates all four governors, including `performance`.
//
// Fronts are ratios to the default-decision policy on the same app
// (campaign cells measure through runtime::GlobalEvaluator).
//
// Usage: fig3_pareto_fronts [--full] [--csv PREFIX]
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args, {"csv"});
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header(
      "Fig. 3: application-specific Pareto fronts (time vs energy)", scale,
      spec);
  std::vector<std::string> methods = {"parmis", "rl", "il"};
  for (const auto& name : bench::paper_governors()) methods.push_back(name);
  std::vector<scenario::ScenarioSpec> scenarios;
  for (const std::string app : {"qsort", "pca"}) {
    scenarios.push_back(
        bench::app_scenario("fig3-" + app, app, methods, scale));
  }
  const exec::CampaignReport report =
      bench::run_campaign(scenarios, scale, 31);

  for (const auto& scenario : scenarios) {
    const std::string& app_name = scenario.benchmark_apps.front();
    auto front_of =
        [&](const std::string& method) -> const std::vector<num::Vec>& {
      return bench::find_cell(report, scenario.name, method).front;
    };
    const std::vector<num::Vec>& parmis_front = front_of("parmis");
    const std::vector<num::Vec>& rl_front = front_of("rl");
    const std::vector<num::Vec>& il_front = front_of("il");

    std::cout << "--- " << app_name << " ---\n";
    Table table({"method", "time_ratio", "energy_ratio"});
    for (const auto& method : methods) {
      std::vector<num::Vec> front = front_of(method);
      std::sort(front.begin(), front.end());
      for (const auto& p : front) {
        table.begin_row().add(method).add(p[0], 3).add(p[1], 3);
      }
    }
    table.print(std::cout);
    if (args.has("csv")) {
      table.save_csv(args.get("csv", "fig3") + "_" + app_name + ".csv");
    }

    // --- shape checks against the paper's observations ---
    auto min_time = [](const std::vector<num::Vec>& front) {
      double best = 1e300;
      for (const auto& p : front) best = std::min(best, p[0]);
      return best;
    };
    std::cout << "\nlowest time ratio: parmis "
              << format_double(min_time(parmis_front), 3) << ", rl "
              << format_double(min_time(rl_front), 3) << ", il "
              << format_double(min_time(il_front), 3)
              << "  (paper: parmis < rl < il for qsort)\n"
              << "governors dominated by the PaRMIS front: "
              << bench::governors_dominated(report, scenario.name,
                                            parmis_front)
              << "/4  (paper: 4/4 including `performance`)\n\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
