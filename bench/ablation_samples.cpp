// Ablation A2: Monte-Carlo sample count S in the acquisition (Eq. 5/9).
//
// The paper uses S = 1 and reports no critical hyper-parameters
// (Sec. V-B).  This ablation verifies that claim on our substrate:
// S in {1, 4, 8} should produce statistically indistinguishable PHV at
// equal evaluation budgets (larger S costs proportionally more
// acquisition time, also reported here).
//
// Each S is a ParmisConfig variant of one scenario, run as a campaign
// cell; PHV is normalized to S = 1 against one shared reference.
//
// Usage: ablation_samples [--full]
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header("Ablation A2: acquisition MC samples S", scale, spec);

  const std::size_t s_values[] = {1, 4, 8};
  std::vector<exec::CellResult> cells;
  std::vector<std::vector<num::Vec>> fronts;
  for (const std::size_t s_count : s_values) {
    scenario::ScenarioSpec variant =
        bench::app_scenario("a2-fft", "fft", {"parmis"}, scale);
    variant.parmis.acquisition.num_mc_samples = s_count;
    cells.push_back(bench::run_cell(variant, "parmis", scale, 111));
    fronts.push_back(cells.back().front);
    std::cerr << "[A2] S=" << s_count << " done in " << cells.back().wall_s
              << "s\n";
  }
  const std::vector<double> norm = bench::normalized_phv(fronts);
  Table table({"S", "phv_vs_s1", "front_size", "wall_s"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.begin_row()
        .add_int(static_cast<long long>(s_values[i]))
        .add(norm[i], 4)
        .add_int(static_cast<long long>(fronts[i].size()))
        .add(cells[i].wall_s, 2);
  }
  table.print(std::cout);
  std::cout << "\nexpected: PHV varies by a few percent across S — the "
               "paper's 'no critical hyper-parameters, S=1' claim.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
