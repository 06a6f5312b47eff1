// Shared machinery for the bench binaries.
//
// Every figure/table bench reproduces one table or figure from the
// paper's evaluation (README's bench table lists them).  They share:
//  * scaled-vs-paper budgets (--full or PARMIS_FULL=1 selects the
//    paper's 500-iteration / dense-lambda-grid settings),
//  * canonical PaRMIS / RL / IL runs for one application,
//  * the paper's PHV methodology: one shared reference point per
//    application across all methods, normalized to PaRMIS's PHV.
// Every timed probe (perf_suite, table2_overhead) uses the one
// min-of-chunks timer below.
#ifndef PARMIS_BENCH_COMMON_HPP
#define PARMIS_BENCH_COMMON_HPP

#include <functional>
#include <string>
#include <vector>

#include "baselines/il.hpp"
#include "baselines/rl.hpp"
#include "common/cli.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"

namespace parmis::bench {

/// Budgets for one experiment run.
struct BenchScale {
  bool full = false;
  core::ParmisConfig parmis;       ///< PaRMIS loop budget
  baselines::RlConfig rl;          ///< per-lambda REINFORCE budget
  baselines::IlConfig il;          ///< per-lambda oracle/DAgger budget
  std::size_t lambda_grid = 6;     ///< scalarizations per baseline sweep
};

/// Scaled default (minutes for the whole suite) or paper-scale budgets.
BenchScale make_scale(bool full);

/// Convenience: parse CLI + environment into a BenchScale.
BenchScale scale_from_cli(const CliArgs& args);

/// One method's result on one application.
struct MethodRun {
  std::string method;                    ///< "parmis" / "rl" / "il"
  std::vector<num::Vec> objectives;      ///< all evaluated points (min)
  std::vector<num::Vec> front;           ///< non-dominated subset
  std::vector<num::Vec> thetas;          ///< matching policy parameters
  std::vector<double> phv_history;       ///< PaRMIS only
  std::size_t evaluations = 0;
};

/// Runs PaRMIS on one application for the given objective pair.
MethodRun run_parmis(soc::Platform& platform, const soc::Application& app,
                     const std::vector<runtime::Objective>& objectives,
                     const BenchScale& scale, std::uint64_t seed);

/// Runs the scalarized RL baseline sweep (time/energy objectives only).
MethodRun run_rl(soc::Platform& platform, const soc::Application& app,
                 const std::vector<runtime::Objective>& objectives,
                 const BenchScale& scale, std::uint64_t seed);

/// Runs the scalarized IL baseline sweep (time/energy objectives only).
MethodRun run_il(soc::Platform& platform, const soc::Application& app,
                 const std::vector<runtime::Objective>& objectives,
                 const BenchScale& scale, std::uint64_t seed);

/// Re-evaluates a run's policies under different objectives (the paper's
/// Fig. 6 protocol: RL/IL reuse their time/energy policies for PPW).
MethodRun reevaluate(const MethodRun& run, soc::Platform& platform,
                     const soc::Application& app,
                     const std::vector<runtime::Objective>& objectives);

/// The four stock governors as labelled single points.
std::vector<std::pair<std::string, num::Vec>> governor_points(
    soc::Platform& platform, const soc::Application& app,
    const std::vector<runtime::Objective>& objectives);

/// Reference point covering every front in `fronts` with 10 % margin
/// (the paper's "same reference point for all DRM approaches").
num::Vec shared_reference(const std::vector<std::vector<num::Vec>>& fronts);

/// PHV of a front against a reference (dispatching exact/MC).
double phv(const std::vector<num::Vec>& front, const num::Vec& ref);

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
