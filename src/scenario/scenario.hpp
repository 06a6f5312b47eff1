// Declarative scenario registry: what to evaluate, on which platform.
//
// A ScenarioSpec is a self-contained, serializable description of one
// evaluation setting: a named platform variant (SocSpec registry), a
// platform configuration (sensor noise, DVFS charging), an application
// suite (paper benchmarks by name plus procedurally generated apps),
// an objective set, thermal on/off, the methods to run, and the PaRMIS
// budget.  Campaign cells are (scenario x method x seed) points; the
// runner materializes each cell's Platform/Evaluator/Rng from the spec
// alone, which is what makes runs bitwise-reproducible regardless of
// thread count or cell ordering.
//
// The registry ships >= 8 named scenarios spanning all three platform
// variants; registry lookups are by name so CLIs, benches, and tests
// share one catalogue.
#ifndef PARMIS_SCENARIO_SCENARIO_HPP
#define PARMIS_SCENARIO_SCENARIO_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/parmis.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/objectives.hpp"
#include "scenario/workload_gen.hpp"
#include "soc/platform.hpp"
#include "soc/spec.hpp"

namespace parmis::scenario {

/// One named evaluation setting.
struct ScenarioSpec {
  std::string name;
  std::string description;

  // --- platform ---
  std::string platform = "exynos5422";  ///< SocSpec::by_name key
  soc::PlatformConfig platform_config;

  // --- application suite ---
  std::vector<std::string> benchmark_apps;  ///< paper apps by name
  std::optional<WorkloadGenConfig> generated;  ///< appended synthetic apps
  std::uint64_t workload_seed = 1;

  // --- evaluation ---
  std::vector<runtime::ObjectiveKind> objectives = {
      runtime::ObjectiveKind::ExecutionTime, runtime::ObjectiveKind::Energy};
  bool thermal = false;
  soc::ThermalParams thermal_params;

  // --- methods + budgets ---
  /// Methods the campaign runs on this scenario: any name registered
  /// with methods::MethodRegistry.
  /// validate() also checks each method's declared objective support.
  std::vector<std::string> methods = {"parmis", "performance", "powersave",
                                      "ondemand"};
  core::ParmisConfig parmis;  ///< budget template; seed overridden per cell

  /// Throws parmis::Error if the spec is internally inconsistent
  /// (unknown platform/app/method names, empty suite, < 2 objectives,
  /// inconsistent generator/thermal/budget parameters).  Every message
  /// names the offending scenario, so a bad spec inside a multi-
  /// scenario campaign or plan file identifies itself.
  void validate() const;
};

/// Versioned canonical byte serialization of every ScenarioSpec field
/// that can influence cell results.  Two specs serialize identically
/// iff campaign cells built from them are guaranteed bitwise-identical
/// — this is what the content-addressed result cache hashes, so the
/// encoding is explicitly layout-independent: fields are emitted in a
/// fixed tagged order, strings are length-prefixed, and doubles are
/// written as their IEEE-754 bit patterns (never via locale- or
/// precision-dependent decimal formatting).
///
/// Deliberately excluded (they cannot change what one cell computes):
/// `description`, `methods` (the cell's own method is keyed separately),
/// and the per-cell-overridden `parmis.seed` / `parmis.initial_thetas`
/// (run_cell always rebuilds them from anchor_thetas and the keyed
/// anchor limit) / `parmis.pool` / convergence-tracking knobs.  Bump the embedded version string when
/// the spec schema or evaluator semantics change so stale cache entries
/// invalidate cleanly.
std::string canonical_serialize(const ScenarioSpec& spec);

/// Materialization helpers (each cell builds its own copies from these).
soc::SocSpec make_platform_spec(const ScenarioSpec& spec);
std::vector<soc::Application> make_applications(const ScenarioSpec& spec);
std::vector<runtime::Objective> make_objectives(const ScenarioSpec& spec);
runtime::EvaluatorConfig make_evaluator_config(const ScenarioSpec& spec);

// ----------------------------------------------------------------- registry

/// Names of the built-in scenarios, in catalogue order.
const std::vector<std::string>& scenario_names();

/// Builds a built-in scenario by name; throws for unknown names.
ScenarioSpec make_scenario(const std::string& name);

/// The whole catalogue.
std::vector<ScenarioSpec> all_scenarios();

/// A small PaRMIS budget (seconds per cell) used by the built-in
/// scenarios; `full` raises budgets toward paper scale.
core::ParmisConfig campaign_parmis_budget(bool full = false);

}  // namespace parmis::scenario

#endif  // PARMIS_SCENARIO_SCENARIO_HPP
