// Fig. 4 reproduction: normalized PHV of RL and IL relative to PaRMIS
// for application-specific optimization over (time, energy), across all
// 12 benchmarks plus the average.
//
// Paper numbers: PaRMIS achieves on average 13 % higher PHV than RL and
// 23 % higher than IL (i.e., normalized RL ~ 0.88, IL ~ 0.81); both
// baselines stay below 1.0 on every application.
//
// One campaign: a single-app scenario per benchmark running parmis, rl
// and il; report::analyze normalizes each method's PHV by PaRMIS's
// against the scenario's shared reference point (paper Sec. V-C).
//
// Usage: fig4_phv_comparison [--full] [--apps a,b,c] [--csv FILE]
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "report/analytics.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale =
      bench::scale_from_cli(args, {"apps", "csv"});
  const std::vector<std::string> app_names = bench::apps_flag(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header(
      "Fig. 4: normalized PHV vs PaRMIS (time/energy, app-specific)",
      scale, spec);

  std::vector<scenario::ScenarioSpec> scenarios;
  for (const auto& name : app_names) {
    scenarios.push_back(bench::app_scenario("fig4-" + name, name,
                                            {"parmis", "rl", "il"}, scale));
  }
  const std::vector<report::ScenarioAnalytics> analytics =
      report::analyze(bench::run_campaign(scenarios, scale, 41));

  Table table({"app", "parmis", "rl", "il"});
  double sum_rl = 0.0, sum_il = 0.0;
  for (std::size_t i = 0; i < app_names.size(); ++i) {
    auto norm = [&](const std::string& method) {
      for (const auto& score : analytics[i].ranking) {
        if (score.method == method) return score.norm_phv;
      }
      throw Error("fig4: no " + method + " score");
    };
    const double rl_norm = norm("rl");
    const double il_norm = norm("il");
    sum_rl += rl_norm;
    sum_il += il_norm;
    table.begin_row().add(app_names[i]).add(norm("parmis"), 3).add(rl_norm, 3)
        .add(il_norm, 3);
  }
  const double n = static_cast<double>(app_names.size());
  table.begin_row().add("average").add(1.0, 3).add(sum_rl / n, 3).add(
      sum_il / n, 3);
  table.print(std::cout);
  if (args.has("csv")) table.save_csv(args.get("csv", "fig4.csv"));

  std::cout << "\npaper: average normalized PHV ~0.88 for RL and ~0.81 for "
               "IL (PaRMIS +13% / +23%); expected shape: both < 1.0 on "
               "average, IL <= RL.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
