// Campaign quickstart: declare a custom scenario, run it in parallel.
//
// Shows the three steps every campaign user follows:
//  1. declare a ScenarioSpec (platform variant + app suite + objectives
//     + methods) — here with procedurally generated applications,
//  2. hand it to CampaignRunner with a thread count,
//  3. read the aggregated report (PHV per method, Pareto fronts, CSV).
//
// Build and run:  cmake --build build && ./build/campaign_quickstart
#include <iostream>

#include "common/cli.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/scenario.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  require_known_flags(args, {});

  // 1. Declare the scenario.  Unlike the built-in catalogue
  //    (scenario::all_scenarios()), this one is assembled from scratch:
  //    the 3-cluster mobile platform, five synthetic apps drawn from the
  //    phase-archetype library, and a time/energy trade-off.
  scenario::ScenarioSpec spec;
  spec.name = "quickstart-mobile3";
  spec.description = "custom scenario: synthetic suite on mobile3";
  spec.platform = "mobile3";
  scenario::WorkloadGenConfig gen;
  gen.num_apps = 5;
  gen.name_prefix = "quick";
  spec.generated = gen;
  spec.workload_seed = 99;
  spec.objectives = {runtime::ObjectiveKind::ExecutionTime,
                     runtime::ObjectiveKind::Energy};
  spec.methods = {"parmis", "performance", "powersave", "schedutil"};
  spec.parmis = scenario::campaign_parmis_budget();
  spec.validate();

  for (const auto& app : scenario::make_applications(spec)) {
    std::cout << "generated app: " << app.name << " (" << app.num_epochs()
              << " epochs, " << app.total_instructions_g() << " Ginstr)\n";
  }

  // 2. Run it — two seeds per cell, fanned across the machine.
  exec::CampaignConfig config;
  config.scenarios = {spec};
  config.num_threads = exec::default_num_threads();
  config.seeds_per_cell = 2;
  exec::CampaignReport report = exec::CampaignRunner(config).run();

  // 3. Read the report.
  std::cout << "\nmethod      seed  front  PHV\n";
  for (const auto& cell : report.cells) {
    std::cout << cell.method << std::string(12 - cell.method.size(), ' ')
              << cell.seed << "     " << cell.front.size() << "      "
              << cell.phv << (cell.error.empty() ? "" : "  FAILED") << "\n";
  }
  report.save_csv("campaign_quickstart.csv");
  std::cout << "\nwrote campaign_quickstart.csv ("
            << report.cells.size() << " cells, "
            << report.num_threads << " threads, "
            << report.wall_s << " s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
