// Out-of-tree method plugin worked example.
//
// Everything a campaign can run is a methods::Method looked up in the
// process-wide MethodRegistry — the built-ins just register first.
// This example shows the complete out-of-tree path: define a Method in
// your own translation unit, self-register it with a static
// MethodRegistrar, and it becomes a first-class campaign method — plan
// files can name it, scenario validation checks its capabilities, the
// result cache keys it, and campaign reports/merges carry it — without
// touching a line of library code.
//
// The toy method here, "random-probe", evaluates K uniformly sampled
// static configurations (seeded per cell, so campaigns stay bitwise
// reproducible) and returns the non-dominated subset.  It is a
// deliberately weak baseline: every real method should beat it, which
// also makes it a handy sanity floor in ranking tables.
//
// Run it end-to-end through a plan file:
//   ./plugin_method examples/plugin_method/toy_plan.json
// (The plan names "random-probe" in its methods list; loading that
// same plan with the stock `campaign` binary fails with "unknown
// method" — the registration below is what makes it resolvable.)
#include <iostream>
#include <memory>
#include <utility>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "exec/campaign.hpp"
#include "methods/registry.hpp"
#include "moo/pareto.hpp"
#include "policy/policy.hpp"
#include "runtime/evaluator.hpp"
#include "serde/plan.hpp"

namespace {

using namespace parmis;

/// Best-of-K random static configurations.
class RandomProbeMethod final : public methods::Method {
 public:
  std::string name() const override { return "random-probe"; }
  std::string description() const override {
    return "toy plugin baseline: best of 8 random static configurations";
  }
  // No `capabilities()` override: like PaRMIS (and unlike RL/IL/DyPO),
  // random probing is objective-agnostic and needs no decision-space
  // bound, so the defaults — "supports everything" — are correct.

  methods::MethodOutput run(const methods::CellContext& ctx,
                            const methods::MethodConfig* config) const
      override {
    require(config == nullptr,
            "method \"random-probe\" takes no configuration");
    constexpr std::size_t kProbes = 8;
    const soc::DecisionSpace& space = ctx.platform.decision_space();
    runtime::EvaluatorConfig timed = ctx.eval_config;
    timed.measure_decision_overhead = true;
    runtime::GlobalEvaluator evaluator(ctx.platform, ctx.apps,
                                       ctx.objectives, timed);
    // Seeded from the cell, so re-runs (and cache validations) are
    // bitwise identical.
    Rng rng(ctx.seed);
    methods::MethodOutput out;
    std::vector<num::Vec> points;
    double overhead = 0.0;
    for (std::size_t k = 0; k < kProbes; ++k) {
      policy::StaticPolicy probe(space.decision(rng.uniform_index(
                                     space.size())),
                                 "random-probe");
      points.push_back(evaluator.evaluate(probe));
      for (const auto& m : evaluator.last_per_app_metrics()) {
        overhead += m.decision_overhead_us;
      }
    }
    out.front = moo::pareto_front(points);
    out.evaluations = kProbes;
    out.decision_overhead_us =
        overhead / static_cast<double>(kProbes * ctx.apps.size());
    return out;
  }
};

// The whole plugin mechanism: a static registrar runs before main()
// and the method is indistinguishable from a built-in thereafter.
const methods::MethodRegistrar kRandomProbe{
    std::make_unique<RandomProbeMethod>()};

int run(const CliArgs& args) {
  require_known_flags(args, {}, /*allow_positional=*/true);
  const std::string plan_path =
      args.positional().empty() ? "examples/plugin_method/toy_plan.json"
                                : args.positional().front();
  const serde::CampaignPlan plan = serde::load_plan(plan_path);
  const serde::ScenarioCatalogue catalogue;
  exec::CampaignConfig config = serde::to_campaign_config(plan, catalogue);
  config.num_threads = 2;
  const exec::CampaignReport report = exec::CampaignRunner(config).run();

  Table table({"scenario", "method", "seed", "front", "phv", "status"});
  bool plugin_ran = false, any_failed = false;
  for (const auto& cell : report.cells) {
    plugin_ran = plugin_ran ||
                 (cell.method == "random-probe" && cell.error.empty() &&
                  !cell.front.empty());
    any_failed = any_failed || !cell.error.empty();
    table.begin_row()
        .add(cell.scenario)
        .add(cell.method)
        .add_int(static_cast<long long>(cell.seed))
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.phv, 4)
        .add(cell.error.empty() ? "ok" : "FAILED: " + cell.error);
  }
  table.print(std::cout);
  std::cout << "\nplugin method \"random-probe\" "
            << (plugin_ran ? "ran through the registry" : "DID NOT RUN")
            << "; digest " << hex64(report.objectives_digest()) << "\n";
  return plugin_ran && !any_failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
