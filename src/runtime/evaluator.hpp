// EVALUATE(ARCH, APP, Pi): run a DRM policy on the simulated platform.
//
// Implements the epoch loop of paper Sec. V-A: the first epoch runs
// under a mid-range default configuration (no counters exist yet); every
// subsequent epoch runs under the decision the policy makes from the
// previous epoch's hardware counters.  DVFS transition costs are charged
// by the Platform when consecutive decisions change cluster frequencies.
// Optionally a thermal model throttles decisions, mimicking the kernel
// thermal zone (extension; off by default, as on the paper's bench
// setup with a heatsink).
#ifndef PARMIS_RUNTIME_EVALUATOR_HPP
#define PARMIS_RUNTIME_EVALUATOR_HPP

#include <optional>
#include <vector>

#include "policy/policy.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"
#include "soc/thermal.hpp"
#include "soc/workload.hpp"

namespace parmis::runtime {

/// Evaluation options.
struct EvaluatorConfig {
  bool measure_decision_overhead = false;  ///< wall-clock decide() timing
  bool enable_thermal = false;             ///< RC model + throttling
  soc::ThermalParams thermal_params = {};
};

/// Runs policies against applications on a Platform.
class Evaluator {
 public:
  explicit Evaluator(soc::Platform& platform, EvaluatorConfig config = {});

  /// Runs `app` end to end under `policy` and aggregates metrics.
  /// Calls policy.reset() first.
  RunMetrics run(policy::Policy& policy, const soc::Application& app);

  /// Convenience: metrics -> minimization-convention objective vector.
  num::Vec evaluate(policy::Policy& policy, const soc::Application& app,
                    const std::vector<Objective>& objectives);

  const soc::Platform& platform() const { return *platform_; }

 private:
  soc::Platform* platform_;  // non-owning
  EvaluatorConfig config_;
};

/// Multi-application ("global", paper Sec. V-D) evaluation.
///
/// Objectives are aggregated across applications after per-app
/// normalization by a reference policy's metrics (the default-decision
/// static policy), so long apps do not drown out short ones:
///   O_global_j = mean over apps of  O_j(app) / O_j^ref(app).
class GlobalEvaluator {
 public:
  GlobalEvaluator(soc::Platform& platform,
                  std::vector<soc::Application> apps,
                  std::vector<Objective> objectives,
                  EvaluatorConfig config = {});

  /// Normalized global objective vector (minimization convention).
  num::Vec evaluate(policy::Policy& policy);

  /// Per-app metrics of the last evaluate() call.
  const std::vector<RunMetrics>& last_per_app_metrics() const {
    return last_metrics_;
  }

  const std::vector<soc::Application>& apps() const { return apps_; }
  const std::vector<Objective>& objectives() const { return objectives_; }

 private:
  /// Reference-normalized mean of last_metrics_.
  num::Vec aggregate_last_metrics() const;

  Evaluator evaluator_;
  std::vector<soc::Application> apps_;
  std::vector<Objective> objectives_;
  std::vector<num::Vec> reference_;  ///< per-app reference raw magnitudes
  std::vector<RunMetrics> last_metrics_;
};

}  // namespace parmis::runtime

#endif  // PARMIS_RUNTIME_EVALUATOR_HPP
