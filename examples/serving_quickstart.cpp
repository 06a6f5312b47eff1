// Serving quickstart: PaRMIS's offline/online split (paper Fig. 1) in
// one process — campaign -> merged report -> PolicyStore -> decide ->
// deploy, the same loop `policy-serve` runs as a daemon (see
// docs/serving.md for the NDJSON protocol).
//
// The flow:
//  1. offline: run a tiny sharded campaign (PaRMIS at a toy budget plus
//     three governors) and merge the shards (bit-identical to an
//     unsharded run),
//  2. install the merged report into a hot-swappable PolicyStore,
//  3. online: answer decide requests — named operating modes, explicit
//     per-objective weights, and "auto" dispatch from workload
//     counters — each picking one member of the learned Pareto front,
//  4. deploy: load each served theta into an MLP policy and re-measure
//     it the way the campaign cell measured it; it lands exactly on the
//     served front point,
//  5. hot-swap a refreshed snapshot mid-flight and show the held
//     snapshot still answers identically (the RCU contract).
//
// Run:  ./serving_quickstart [--seeds N]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "exec/campaign.hpp"
#include "policy/mlp_policy.hpp"
#include "report/merge.hpp"
#include "runtime/evaluator.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  require_known_flags(args, {"seeds"});

  // --- offline: a small campaign, sharded two ways, then merged ---
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  const scenario::ScenarioSpec& spec = config.scenarios[0];
  config.scenarios[0].methods = {"parmis", "performance", "powersave",
                                 "ondemand"};
  config.seeds_per_cell = args.get_count("seeds", 2, 1);

  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    exec::CampaignConfig sharded = config;
    sharded.shard = exec::ShardSpec{i, 2};
    shards.push_back(exec::CampaignRunner(sharded).run());
  }
  const exec::CampaignReport merged = report::merge(std::move(shards));
  std::cout << "offline: " << merged.cells.size()
            << " cells merged from 2 shards\n\n";

  // --- online: install and serve ---
  serve::PolicyStore store;
  store.build_and_install({merged}, {"merged"});
  const serve::PolicyServer server(store);
  const auto snapshot = store.require_snapshot();

  // --- deploy: re-measure each served policy like the cell did ---
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  runtime::GlobalEvaluator evaluator(
      platform, scenario::make_applications(spec),
      scenario::make_objectives(spec), scenario::make_evaluator_config(spec));
  policy::MlpPolicy policy(platform.decision_space());

  Table table({"request", "method", "mode", "index", "time_s", "energy_j",
               "re-measured"});
  bool all_exact = true;
  const auto show = [&](const std::string& label,
                        const serve::DecideRequest& request) {
    const serve::Decision d = server.decide_on(*snapshot, request);
    const num::Vec raw = d.entry->raw_objectives(d.index);
    std::string replay = "-";  // governors carry no theta
    if (!d.entry->thetas.empty()) {
      policy.set_parameters(d.entry->thetas[d.index]);
      const bool exact =
          evaluator.evaluate(policy) == d.entry->front[d.index];
      all_exact = all_exact && exact;
      replay = exact ? "exact" : "DIFFERS";
    }
    table.begin_row()
        .add(label)
        .add(d.entry->method)
        .add(d.mode)
        .add_int(static_cast<long long>(d.index))
        .add(raw[0], 4)
        .add(raw[1], 4)
        .add(replay);
  };

  serve::DecideRequest request;
  request.scenario = spec.name;
  for (const char* mode :
       {"performance", "balanced", "powersave", "thermal-critical"}) {
    request.mode = mode;
    show(std::string("mode ") + mode, request);
  }

  request.mode.clear();
  request.weights = {{"time_s", 2.0}, {"energy_j", 5.0}};
  show("weights 2:5", request);
  request.weights.clear();

  // "auto" picks a mode from workload counters (DPTF/PMF style).
  request.mode = "auto";
  request.workload.battery_pct = 12.0;
  show("auto, battery 12%", request);
  request.workload.battery_pct.reset();
  request.workload.thermal_headroom_c = 2.0;
  show("auto, 2 C headroom", request);

  request = serve::DecideRequest{};
  request.scenario = spec.name;
  request.method = "ondemand";
  show("method ondemand", request);
  table.print(std::cout);
  std::cout << "\nswitching trade-off is one table lookup: no retraining\n";

  // --- hot swap: the held snapshot is unaffected ---
  serve::DecideRequest probe;
  probe.scenario = spec.name;
  probe.mode = "balanced";
  const std::size_t before = server.decide_on(*snapshot, probe).index;
  store.build_and_install({merged}, {"merged-refresh"});
  const std::size_t after = server.decide_on(*snapshot, probe).index;
  std::cout << "hot swap: generation " << snapshot->generation << " -> "
            << store.require_snapshot()->generation
            << "; held snapshot still answers index " << before << " == "
            << after << "\n";
  return before == after && all_exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
