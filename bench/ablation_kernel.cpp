// Ablation A3: GP kernel choice (RBF vs Matern-5/2).
//
// The paper does not specify its kernel; this ablation shows the method
// is robust to the choice, supporting the "no critical hyper-parameters"
// claim on the modeling side.
//
// Each kernel is a ParmisConfig variant of one scenario, run as a
// campaign cell.
//
// Usage: ablation_kernel [--full]
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args);
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header("Ablation A3: GP kernel choice", scale, spec);

  Table table({"app", "rbf", "matern52"});
  for (const std::string name : {"qsort", "pca"}) {
    std::vector<std::vector<num::Vec>> fronts;
    for (const std::string kernel : {"rbf", "matern52"}) {
      scenario::ScenarioSpec variant =
          bench::app_scenario("a3-" + name, name, {"parmis"}, scale);
      variant.parmis.kernel = kernel;
      fronts.push_back(bench::run_cell(variant, "parmis", scale, 121).front);
      std::cerr << "[A3] " << name << "/" << kernel << " done\n";
    }
    const std::vector<double> norm = bench::normalized_phv(fronts);
    table.begin_row().add(name).add(norm[0], 3).add(norm[1], 3);
  }
  table.print(std::cout);
  std::cout << "\nexpected: both kernels within a few percent of each "
               "other on every app.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
