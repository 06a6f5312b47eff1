// Ablation A4: manycore scaling — the paper's stated future work
// ("studying PaRMIS for large-scale manycore systems", Sec. VI).
//
// Runs PaRMIS on the 16-core / 4-cluster spec (decision space ~50x
// larger than the Exynos; theta roughly doubles because the policy grows
// two more knob heads per extra cluster) and reports front quality vs
// the governors, demonstrating that nothing in the framework is
// specific to the 2-cluster platform.
//
// PaRMIS and the governors run as campaign cells of one scenario; the
// table prints ratios to the default-decision policy.
//
// Usage: ablation_manycore [--full]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/policy_search.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const soc::SocSpec spec = soc::SocSpec::manycore16();
  bench::print_header("Ablation A4: manycore16 scaling (future work)",
                      scale, spec);
  const std::vector<std::string>& governors = bench::paper_governors();
  std::vector<std::string> methods = {"parmis"};
  methods.insert(methods.end(), governors.begin(), governors.end());
  scenario::ScenarioSpec scenario =
      bench::app_scenario("a4-motionest", "motionest", methods, scale);
  scenario.platform = "manycore16";

  soc::Platform platform(spec);
  std::cout << "decision space: " << platform.decision_space().size()
            << " configurations/epoch (Exynos: 4940)\n";
  core::DrmPolicyProblem probe(platform, apps::make_benchmark("motionest"),
                               runtime::time_energy_objectives());
  std::cout << "policy parameter count: " << probe.theta_dim()
            << " (Exynos policy: smaller; heads double with clusters)\n\n";

  const exec::CampaignReport report =
      bench::run_campaign({scenario}, scale, 131);
  const std::vector<num::Vec>& front =
      bench::find_cell(report, scenario.name, "parmis").front;

  Table table({"method", "time_ratio", "energy_ratio"});
  for (const auto& p : front) {
    table.begin_row().add("parmis").add(p[0], 3).add(p[1], 3);
  }
  for (const auto& name : governors) {
    const num::Vec& point =
        bench::find_cell(report, scenario.name, name).front.front();
    table.begin_row().add(name).add(point[0], 3).add(point[1], 3);
  }
  table.print(std::cout);
  std::cout << "\ngovernors dominated on the manycore platform: "
            << bench::governors_dominated(report, scenario.name, front)
            << "/4\n"
            << "expected: the framework transfers unchanged; a front of "
               "several policies spanning a real trade-off.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
