// First-class campaign methods: the interface every DRM approach the
// campaign runner can execute implements.
//
// A Method is one named, stateless strategy for producing a Pareto
// front on a campaign cell — PaRMIS itself, the linear-scalarization /
// RL / IL / DyPO baselines the paper compares against, and every stock
// governor.  The runner materializes the cell (platform, applications,
// objectives, evaluator config) from the ScenarioSpec exactly as
// before, packages it as a CellContext, and dispatches through the
// MethodRegistry — `run_cell` no longer knows any method by name.
//
// Methods are shared, immutable singletons: `run` is const and must be
// thread-safe (cells run concurrently on the campaign ThreadPool; all
// mutable state lives in the cell-local context, on the stack, or in
// the run's thread-safe oracle-table memo).
//
// Capabilities are structural, not advisory.  RL and IL cannot express
// a per-epoch reward / oracle for PPW (paper Sec. V-E), and DyPO's
// exhaustive table only covers time/energy — those methods declare the
// exact objective set they support and the scenario/plan validators
// reject incompatible pairings up front, naming the scenario and the
// method, instead of failing mid-campaign inside a cell.
//
// Typed per-method configs: a Method may expose a MethodConfig struct
// (budgets, lambda-grid divisions, DAgger rounds, k-means clusters…)
// that serdes to/from the `method_configs` block of `parmis-plan-v2`
// files.  `canonical_config` folds a *non-default* config into the
// cell's content-addressed cache key — and returns "" for the default,
// so every pre-existing cache key stays byte-stable until a knob is
// actually turned, and turning one method's knob moves only that
// method's keys.
#ifndef PARMIS_METHODS_METHOD_HPP
#define PARMIS_METHODS_METHOD_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "numerics/vec.hpp"
#include "runtime/evaluator.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"
#include "soc/workload.hpp"

// Forward declaration only: scenario.cpp validates through the method
// registry, so this header must not close a scenario <-> methods
// include cycle by pulling the scenario layer back in.
namespace parmis::scenario {
struct ScenarioSpec;
}

namespace parmis::methods {

/// Base of every typed per-method configuration.  Concrete methods
/// derive their own struct; instances are immutable once constructed
/// (campaigns share them across cells and threads).
class MethodConfig {
 public:
  virtual ~MethodConfig() = default;
  virtual std::unique_ptr<MethodConfig> clone() const = 0;
};

class OracleTableMemo;

/// Everything one campaign cell hands a method.  All referenced objects
/// except `canonical_spec` and `oracle_tables` are cell-local (built by
/// run_cell for this cell alone) and outlive the `run` call; the
/// platform is mutable because evaluation advances its sensor-noise
/// stream.  `oracle_tables` is the run's shared memo of IL/DyPO oracle
/// tables (methods/oracle_memo.hpp).
struct CellContext {
  const scenario::ScenarioSpec& spec;
  /// scenario::canonical_serialize(spec), serialized once per scenario
  /// by the campaign runner (the oracle memo's key).
  const std::string& canonical_spec;
  soc::Platform& platform;
  const std::vector<soc::Application>& apps;
  const std::vector<runtime::Objective>& objectives;
  const runtime::EvaluatorConfig& eval_config;
  std::uint64_t seed = 0;
  std::size_t anchor_limit = 0;
  OracleTableMemo& oracle_tables;
};

/// What a method hands back to the runner.
struct MethodOutput {
  std::vector<num::Vec> front;  ///< non-dominated objective vectors (min)
  std::size_t evaluations = 0;  ///< policy evaluations consumed
  /// Parameter vectors of the non-dominated policies (empty when the
  /// method's policies are not parameter vectors, e.g. DyPO's lookup
  /// tables or the stateless governors).
  std::vector<num::Vec> pareto_thetas;
  double decision_overhead_us = 0.0;  ///< deployed-policy decide() timing
};

/// Declared structural capabilities of a method.
struct MethodCapabilities {
  /// Exact objective kinds the method supports; empty = every kind
  /// (the plug-and-play property PaRMIS claims and RL/IL lack).
  std::vector<runtime::ObjectiveKind> objectives;
  /// Largest platform decision space the method can handle; 0 = any.
  /// IL and DyPO build exhaustive per-epoch oracles — O(epochs x
  /// decisions), once per campaign run for each (scenario, fidelity)
  /// through the run's OracleTableMemo — which is tractable on the
  /// Exynos (4 940) and mobile3 (50 336) spaces but not on manycore16's
  /// 30.5M, so they declare a bound and incompatible scenarios are
  /// rejected at validation time.
  std::size_t max_decision_space = 0;

  bool supports(runtime::ObjectiveKind kind) const;
  bool supports_all(const std::vector<runtime::ObjectiveKind>& kinds) const;
  /// "all" or a comma-separated kind list, for errors and --list-methods.
  std::string objectives_label() const;
};

/// One campaign method.  Instances registered with the MethodRegistry
/// must stay valid for the process lifetime.
class Method {
 public:
  virtual ~Method() = default;

  /// Stable registry key; also the `method` string in plans, reports,
  /// and cache keys — renaming one is a plan-schema version bump.
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual MethodCapabilities capabilities() const { return {}; }

  /// The method's default-constructed typed config; nullptr when the
  /// method has no knobs (governors).
  virtual std::unique_ptr<MethodConfig> default_config() const {
    return nullptr;
  }
  /// Strict decode of one `method_configs` entry; `context` prefixes
  /// every error.  The base implementation rejects any document —
  /// knobless methods must not silently swallow a config block.
  virtual std::unique_ptr<MethodConfig> config_from_json(
      const json::Value& doc, const std::string& context) const;
  /// Full JSON form of a config (every knob, fixed order).
  virtual json::Value config_to_json(const MethodConfig& config) const;
  /// Canonical bytes folded into this method's cache keys.  MUST return
  /// "" for nullptr and for any config equal to the default — that is
  /// the contract keeping pre-existing cache keys byte-stable — and a
  /// stable non-empty encoding otherwise.
  virtual std::string canonical_config(const MethodConfig* config) const {
    (void)config;
    return {};
  }

  /// Produces the cell's front.  `config` is nullptr for defaults and
  /// is otherwise an instance this method's config_from_json (or
  /// default_config) produced; a foreign type throws.
  virtual MethodOutput run(const CellContext& ctx,
                           const MethodConfig* config) const = 0;

  /// Throws parmis::Error unless every kind is supported; the message
  /// starts with `who` (e.g. `scenario "x": `) and names this method,
  /// the offending objective, and the supported set.
  void check_objectives(const std::vector<runtime::ObjectiveKind>& kinds,
                        const std::string& who) const;

  /// Throws parmis::Error when the platform's decision-space size
  /// exceeds the declared bound; same message conventions.
  void check_decision_space(std::size_t space_size,
                            const std::string& who) const;

  /// Throws parmis::Error unless `config` is acceptable to this method:
  /// nullptr always is; otherwise the method must have knobs and the
  /// config must be its own type.  Campaign/plan validation calls this
  /// up front so a misconfigured method fails fast with `who` context,
  /// not mid-campaign (or while computing cache keys).
  void check_config(const MethodConfig* config, const std::string& who) const;
};

/// The typed `method_configs` block of a plan/campaign: at most one
/// config per method name, insertion-ordered (serde round trips keep
/// author order).  Cheap to copy — entries are shared immutable.
class MethodConfigSet {
 public:
  using Entry = std::pair<std::string, std::shared_ptr<const MethodConfig>>;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Sets (or replaces) the config for `method`; a null config erases.
  void set(const std::string& method,
           std::shared_ptr<const MethodConfig> config);

  /// The config for `method`, or nullptr meaning "defaults".
  const MethodConfig* find(const std::string& method) const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace parmis::methods

#endif  // PARMIS_METHODS_METHOD_HPP
