// Shared machinery for the bench binaries.
//
// Every figure/table bench reproduces one table or figure from the
// paper's evaluation (README's bench table lists them).  They share:
//  * scaled-vs-paper budgets (--full or PARMIS_FULL=1 selects the
//    paper's 500-iteration / dense-lambda-grid settings),
//  * one way to run a method: single-app scenarios executed as
//    campaign cells through the method registry (exec::CampaignRunner),
//    on all cores, every cell with all constant-decision anchors,
//  * the paper's PHV methodology: one shared reference point per
//    application across all methods, normalized to PaRMIS's PHV.
// Campaign cells measure objectives as ratios to the default-decision
// policy (runtime::GlobalEvaluator), so every front a bench compares
// is measured that way — including the few sweeps no registry method
// runs (re-measured policies, random search, tabular Q-learning).
// Every timed probe (perf_suite, table2_overhead) uses the one
// min-of-chunks timer below.
#ifndef PARMIS_BENCH_COMMON_HPP
#define PARMIS_BENCH_COMMON_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/parmis.hpp"
#include "exec/campaign.hpp"
#include "methods/builtin.hpp"
#include "scenario/scenario.hpp"
#include "soc/platform.hpp"

namespace parmis::bench {

/// Budgets for one experiment run.
struct BenchScale {
  bool full = false;
  core::ParmisConfig parmis;     ///< PaRMIS loop budget
  methods::RlMethodConfig rl;    ///< REINFORCE sweep (grid = lambda grid)
  methods::IlMethodConfig il;    ///< oracle/DAgger sweep (same grid)

  /// The RL and IL entries every bench campaign runs with.
  methods::MethodConfigSet method_configs() const;
};

/// Scaled default (minutes for the whole suite) or paper-scale budgets.
BenchScale make_scale(bool full);

/// Parses CLI + environment into a BenchScale: --full, and the
/// per-run overrides --iterations, --rl-episodes and --grid (>= 2).
/// Rejects every flag outside those and `extra_flags`.
BenchScale scale_from_cli(const CliArgs& args,
                          const std::vector<std::string>& extra_flags = {});

/// --apps a,b,c: benchmark names, each known and listed once; all of
/// apps::benchmark_names() when absent.
std::vector<std::string> apps_flag(const CliArgs& args);

/// Single-app scenario `name`: `app` on the Exynos 5422 under (time,
/// energy), running `methods` with the scale's PaRMIS budget.
scenario::ScenarioSpec app_scenario(const std::string& name,
                                    const std::string& app,
                                    std::vector<std::string> methods,
                                    const BenchScale& scale);

/// Runs every (scenario, method) cell once at `seed` on all cores with
/// the scale's budgets; throws naming the first failed cell.
exec::CampaignReport run_campaign(std::vector<scenario::ScenarioSpec> scenarios,
                                  const BenchScale& scale, std::uint64_t seed);

/// One cell with the scale's budgets and all anchors; throws if it
/// failed.  For variants of one scenario that differ in `spec.parmis`.
exec::CellResult run_cell(const scenario::ScenarioSpec& spec,
                          const std::string& method, const BenchScale& scale,
                          std::uint64_t seed);

/// The cell of `report` for (scenario, method); throws if absent.
const exec::CellResult& find_cell(const exec::CampaignReport& report,
                                  const std::string& scenario,
                                  const std::string& method);

/// The four stock governors the paper plots next to the fronts.
const std::vector<std::string>& paper_governors();

/// How many paper_governors() points of `scenario` in `report` some
/// point of `front` dominates.
int governors_dominated(const exec::CampaignReport& report,
                        const std::string& scenario,
                        const std::vector<num::Vec>& front);

/// Re-measures MLP policies under `spec`'s apps and objectives, the way
/// a cell of `spec` measures them; returns the non-dominated points.
/// The paper's Fig. 6 protocol: RL/IL reuse their time/energy policies
/// for PPW.
std::vector<num::Vec> reevaluate(const scenario::ScenarioSpec& spec,
                                 const std::vector<num::Vec>& thetas);

/// PHV of each front over PHV of fronts[0], all against one reference
/// point covering every front with 10 % margin (the paper's "same
/// reference point for all DRM approaches").
std::vector<double> normalized_phv(
    const std::vector<std::vector<num::Vec>>& fronts);

/// Minimum-of-chunks timer (docs/perf.md): runs `chunk(0)` once untimed
/// as a warmup (caches, page faults), then times `chunk(c)` for every c
/// in [0, chunks) and returns the fastest chunk's seconds.  External
/// interference only ever adds time, so the fastest chunk is the
/// closest observation of the true cost of one chunk's work.
double min_chunk_seconds(std::size_t chunks,
                         const std::function<void(std::size_t)>& chunk);

/// Prints the standard bench header (scale, platform, decision count).
void print_header(const std::string& title, const BenchScale& scale,
                  const soc::SocSpec& spec);

}  // namespace parmis::bench

#endif  // PARMIS_BENCH_COMMON_HPP
