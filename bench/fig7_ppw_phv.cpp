// Fig. 7 reproduction: normalized PHV for the (time, PPW) objective pair
// across all 12 applications, PaRMIS vs RL vs IL (baselines reuse their
// time/energy policies, as in Fig. 6 / paper Sec. V-E).
//
// Paper numbers: PaRMIS is higher on every application, with average
// improvements of 16 % over RL and 21 % over IL (normalized RL ~ 0.86,
// IL ~ 0.83).
//
// One campaign: per app, a (time, PPW) scenario running parmis and a
// (time, energy) one running rl and il, whose Pareto policies are then
// re-measured under (time, PPW).
//
// Usage: fig7_ppw_phv [--full] [--apps a,b,c] [--csv FILE]
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale =
      bench::scale_from_cli(args, {"apps", "csv"});
  const std::vector<std::string> app_names = bench::apps_flag(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header(
      "Fig. 7: normalized PHV vs PaRMIS (PPW/time, app-specific)", scale,
      spec);

  std::vector<scenario::ScenarioSpec> scenarios;
  for (const auto& name : app_names) {
    scenario::ScenarioSpec tp =
        bench::app_scenario("fig7-" + name + "-ppw", name, {"parmis"}, scale);
    tp.objectives = {runtime::ObjectiveKind::ExecutionTime,
                     runtime::ObjectiveKind::PPW};
    scenarios.push_back(tp);
    scenarios.push_back(bench::app_scenario("fig7-" + name + "-te", name,
                                            {"rl", "il"}, scale));
  }
  const exec::CampaignReport report =
      bench::run_campaign(scenarios, scale, 91);

  Table table({"app", "parmis", "rl", "il"});
  double sum_rl = 0.0, sum_il = 0.0;
  for (std::size_t a = 0; a < app_names.size(); ++a) {
    const scenario::ScenarioSpec& tp = scenarios[2 * a];
    const scenario::ScenarioSpec& te = scenarios[2 * a + 1];
    auto reused = [&](const std::string& method) {
      return bench::reevaluate(
          tp, bench::find_cell(report, te.name, method).pareto_thetas);
    };
    const std::vector<double> norm = bench::normalized_phv(
        {bench::find_cell(report, tp.name, "parmis").front, reused("rl"),
         reused("il")});
    sum_rl += norm[1];
    sum_il += norm[2];
    table.begin_row().add(app_names[a]).add(norm[0], 3).add(norm[1], 3).add(
        norm[2], 3);
  }
  const double n = static_cast<double>(app_names.size());
  table.begin_row().add("average").add(1.0, 3).add(sum_rl / n, 3).add(
      sum_il / n, 3);
  table.print(std::cout);
  if (args.has("csv")) table.save_csv(args.get("csv", "fig7.csv"));

  std::cout << "\npaper: PaRMIS higher on all apps; average normalized PHV "
               "~0.86 (RL) and ~0.83 (IL).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
