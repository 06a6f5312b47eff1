// Fig. 6 reproduction: application-specific Pareto fronts for the
// complex-objective pair (execution time, PPW) on (a) Basicmath and
// (b) Dijkstra.
//
// Protocol exactly as in the paper (Sec. V-E): PaRMIS optimizes
// (time, PPW) directly; RL and IL cannot (no reward function / oracle
// exists for PPW), so their *time/energy* Pareto policies are reused and
// re-measured under (time, PPW).  Governors are evaluated directly.
//
// Paper shape: the PaRMIS front dominates the reused RL/IL fronts in
// both range and quality, and dominates the governors.
//
// Fronts are ratios to the default-decision policy on the same app:
// time_ratio, and ppw_ratio (PPW over the default policy's PPW).
//
// Usage: fig6_ppw_fronts [--full] [--csv PREFIX]
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
      "Fig. 6: Pareto fronts for PPW vs execution time", scale, spec);
  const std::vector<std::string>& governors = bench::paper_governors();
  const std::vector<std::string> app_names = {"basicmath", "dijkstra"};

  // PaRMIS and the governors run on (time, PPW) directly; RL/IL train
  // on (time, energy) and their policies are re-measured under PPW.
  std::vector<scenario::ScenarioSpec> scenarios;
  for (const auto& app : app_names) {
    std::vector<std::string> methods = {"parmis"};
    methods.insert(methods.end(), governors.begin(), governors.end());
    scenario::ScenarioSpec tp =
        bench::app_scenario("fig6-" + app + "-ppw", app, methods, scale);
    tp.objectives = {runtime::ObjectiveKind::ExecutionTime,
                     runtime::ObjectiveKind::PPW};
    scenarios.push_back(tp);
    scenarios.push_back(
        bench::app_scenario("fig6-" + app + "-te", app, {"rl", "il"}, scale));
  }
  const exec::CampaignReport report =
      bench::run_campaign(scenarios, scale, 81);

  for (std::size_t a = 0; a < app_names.size(); ++a) {
    const scenario::ScenarioSpec& tp = scenarios[2 * a];
    const scenario::ScenarioSpec& te = scenarios[2 * a + 1];
    auto front_of =
        [&](const std::string& method) -> const std::vector<num::Vec>& {
      return bench::find_cell(report, tp.name, method).front;
    };
    auto reused = [&](const std::string& method) {
      return bench::reevaluate(
          tp, bench::find_cell(report, te.name, method).pareto_thetas);
    };
    const std::vector<num::Vec>& parmis_front = front_of("parmis");
    const std::vector<num::Vec> rl_front = reused("rl");
    const std::vector<num::Vec> il_front = reused("il");

    std::cout << "--- " << app_names[a] << " ---\n";
    Table table({"method", "time_ratio", "ppw_ratio"});
    auto add_front = [&](const std::string& name,
                         std::vector<num::Vec> front) {
      std::sort(front.begin(), front.end());
      for (const auto& p : front) {
        // PPW is stored negated (minimization); report the raw ratio.
        table.begin_row().add(name).add(p[0], 3).add(-p[1], 4);
      }
    };
    add_front("parmis", parmis_front);
    add_front("rl", rl_front);
    add_front("il", il_front);
    for (const auto& name : governors) add_front(name, front_of(name));
    table.print(std::cout);
    if (args.has("csv")) {
      table.save_csv(args.get("csv", "fig6") + "_" + app_names[a] + ".csv");
    }

    // Shape checks: best PPW and governor dominance.
    auto best_ppw = [](const std::vector<num::Vec>& front) {
      double best = -1e300;
      for (const auto& p : front) best = std::max(best, -p[1]);
      return best;
    };
    std::cout << "\nbest PPW ratio: parmis "
              << format_double(best_ppw(parmis_front), 4) << ", rl "
              << format_double(best_ppw(rl_front), 4) << ", il "
              << format_double(best_ppw(il_front), 4)
              << "  (paper: parmis highest)\n";
    std::cout << "governors dominated by the PaRMIS front: "
              << bench::governors_dominated(report, tp.name, parmis_front)
              << "/4\n\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
