// Fig. 2 reproduction: PaRMIS convergence (PHV vs iteration) for
// (a) Blowfish and (b) Spectral, objectives = (execution time, energy).
//
// Paper shape to reproduce: "PHV improvement is significant in the
// initial iterations and converges in at most 300 iterations."  At the
// default scaled budget the same shape appears over 100 iterations.
//
// The one bench that drives core::Parmis directly: it needs the
// per-iteration PHV history, which campaign cells do not carry.
//
// Usage: fig2_convergence [--full] [--iterations N] [--csv PREFIX]
#include <iostream>

#include "apps/benchmarks.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/policy_search.hpp"

namespace {

int run(const parmis::CliArgs& args) {
  using namespace parmis;
  const bench::BenchScale scale = bench::scale_from_cli(args, {"csv"});
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  bench::print_header("Fig. 2: Convergence of PaRMIS (PHV vs iterations)",
                      scale, spec);

  for (const std::string app_name : {"blowfish", "spectral"}) {
    soc::Platform platform(spec);
    core::DrmPolicyProblem problem(platform, apps::make_benchmark(app_name),
                                   runtime::time_energy_objectives());
    core::ParmisConfig cfg = scale.parmis;
    cfg.seed = 21;
    cfg.initial_thetas = problem.anchor_thetas();
    core::Parmis optimizer(problem.evaluation_fn(), problem.theta_dim(),
                           problem.num_objectives(), cfg);
    const std::vector<double> history = optimizer.run().phv_history;

    Table table({"iteration", "phv"});
    const std::size_t n = history.size();
    const std::size_t step = n > 25 ? n / 25 : 1;
    for (std::size_t i = 0; i < n; i += step) {
      table.begin_row().add_int(static_cast<long long>(i + 1))
          .add(history[i], 4);
    }
    table.begin_row().add_int(static_cast<long long>(n))
        .add(history.back(), 4);

    std::cout << "--- " << app_name << " ---\n";
    table.print(std::cout);

    // Convergence summary in the paper's terms: iteration at which PHV
    // reaches 95 % / 99 % of its final value.
    const double final_phv = history.back();
    std::size_t at95 = n, at99 = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (at95 == n && history[i] >= 0.95 * final_phv) at95 = i + 1;
      if (at99 == n && history[i] >= 0.99 * final_phv) at99 = i + 1;
    }
    std::cout << "reached 95% of final PHV at evaluation " << at95
              << ", 99% at evaluation " << at99 << " (of " << n << ")\n\n";

    if (args.has("csv")) {
      Table csv({"iteration", "phv"});
      for (std::size_t i = 0; i < n; ++i) {
        csv.begin_row().add_int(static_cast<long long>(i + 1))
            .add(history[i], 6);
      }
      csv.save_csv(args.get("csv", "fig2") + "_" + app_name + ".csv");
    }
  }
  std::cout << "paper: PHV climbs steeply early and flattens well before "
               "the iteration cap; both apps should show the same shape.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return parmis::guarded_main(argc, argv, run);
}
