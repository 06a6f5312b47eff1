// Ablation A1: value of the information-gain acquisition.
//
// Compares three selection strategies at identical evaluation budgets on
// three representative applications (time/energy):
//   * parmis   — the full Eq. 9 information-gain acquisition,
//   * random   — uniform random theta (no model),
//   * thompson — NSGA-II on GP posterior samples, pick a survivor
//                (i.e., the acquisition's front sampler without the
//                entropy scoring).
// This isolates the contribution of the entropy term that DESIGN.md
// calls out as the paper's key algorithmic ingredient.  parmis and
// thompson are ParmisConfig variants of one scenario run as campaign
// cells, so both start from the same constant-decision anchors; random
// search measures through the same per-app GlobalEvaluator.
//
// Usage: ablation_acquisition [--full] [--iterations N]
#include <iostream>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/policy_search.hpp"
#include "moo/pareto.hpp"

namespace {

using namespace parmis;

constexpr std::uint64_t kSeed = 101;

/// Random-search baseline at the same budget: the front of `budget`
/// uniform random thetas, measured as `spec`'s cells measure.
std::vector<num::Vec> random_search(const scenario::ScenarioSpec& spec,
                                    std::size_t budget, std::uint64_t seed) {
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  core::DrmPolicyProblem problem(platform, scenario::make_applications(spec),
                                 scenario::make_objectives(spec), {},
                                 scenario::make_evaluator_config(spec));
  Rng rng(seed);
  auto fn = problem.evaluation_fn();
  std::vector<num::Vec> objs;
  for (std::size_t i = 0; i < budget; ++i) {
    num::Vec theta(problem.theta_dim());
    for (auto& v : theta) v = rng.uniform(-2.0, 2.0);
    objs.push_back(fn(theta));
  }
  return moo::pareto_front(objs);
}

int run(const CliArgs& args) {
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header("Ablation A1: acquisition strategy", scale, spec);

  Table table({"app", "parmis", "thompson", "random"});
  for (const std::string name : {"qsort", "spectral", "sha"}) {
    const scenario::ScenarioSpec full =
        bench::app_scenario("a1-" + name, name, {"parmis"}, scale);
    // Thompson-style: a tiny unrefined acquisition pool, so the entropy
    // scoring barely matters and the pick degenerates to "take a
    // sampled-front survivor".
    scenario::ScenarioSpec thompson = full;
    thompson.parmis.acq_pool_size = 4;
    thompson.parmis.acq_refine_steps = 0;

    const exec::CellResult full_cell =
        bench::run_cell(full, "parmis", scale, kSeed);
    const std::vector<double> norm = bench::normalized_phv(
        {full_cell.front,
         bench::run_cell(thompson, "parmis", scale, kSeed).front,
         random_search(full, full_cell.evaluations, kSeed)});
    table.begin_row().add(name).add(norm[0], 3).add(norm[1], 3).add(norm[2],
                                                                      3);
    std::cerr << "[A1] " << name << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nexpected: random < 1.0 consistently; thompson close to "
               "but typically below the full acquisition.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return guarded_main(argc, argv, run);
}
