// Fig. 5 reproduction: global vs application-specific Pareto-frontier
// DRM policies.  PaRMIS is trained once over all 12 applications
// (normalized multi-app objectives); the resulting global Pareto policy
// set is then deployed per application and its per-app PHV is normalized
// by the app-specific PaRMIS PHV.
//
// Paper shape: global policies stay within ~2 % of app-specific PHV on
// average (>= 1.0 for a few apps), i.e. global training generalizes.
//
// One campaign runs the global scenario and every app-specific one;
// the global Pareto policies are then re-measured on each app the way
// that app's cells measure (ratios to its default-decision policy).
//
// Usage: fig5_global_vs_specific [--full] [--apps a,b,c] [--csv FILE]
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
      "Fig. 5: global vs application-specific Pareto-frontier policies",
      scale, spec);

  // Global training over all applications, plus one app-specific
  // scenario per application.
  scenario::ScenarioSpec global =
      bench::app_scenario("fig5-global", app_names.front(), {"parmis"}, scale);
  global.benchmark_apps = app_names;
  std::vector<scenario::ScenarioSpec> scenarios = {global};
  for (const auto& name : app_names) {
    scenarios.push_back(
        bench::app_scenario("fig5-" + name, name, {"parmis"}, scale));
  }
  const exec::CampaignReport report =
      bench::run_campaign(scenarios, scale, 61);
  const std::vector<num::Vec>& global_thetas =
      bench::find_cell(report, global.name, "parmis").pareto_thetas;
  std::cerr << "[fig5] global front: " << global_thetas.size()
            << " Pareto policies\n";

  // --- per-app comparison ---
  Table table({"app", "app_specific", "global"});
  double sum_norm = 0.0;
  for (std::size_t i = 0; i < app_names.size(); ++i) {
    const scenario::ScenarioSpec& specific = scenarios[i + 1];
    const double normalized = bench::normalized_phv(
        {bench::find_cell(report, specific.name, "parmis").front,
         bench::reevaluate(specific, global_thetas)})[1];
    sum_norm += normalized;
    table.begin_row().add(app_names[i]).add(1.0, 3).add(normalized, 3);
  }
  const double n = static_cast<double>(app_names.size());
  table.begin_row().add("average").add(1.0, 3).add(sum_norm / n, 3);
  table.print(std::cout);
  if (args.has("csv")) table.save_csv(args.get("csv", "fig5.csv"));

  std::cout << "\npaper: global policies within ~2% of app-specific PHV on "
               "average (some apps above 1.0).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
