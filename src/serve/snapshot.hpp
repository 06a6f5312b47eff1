// Immutable serving snapshot: merged reports compiled for O(1) decides.
//
// A snapshot is built once from one or more `parmis-report-v1/v2`
// documents and then only read.  Building does all the expensive and
// fallible work up front so the decide path does none of it:
//  * every report is digest-verified by the report serde at load and
//    structurally validated here (no partial merges, rectangular
//    fronts, objective names that map to known kinds, each once, and
//    agree across every report for a scenario);
//  * per (scenario, method), the fronts of all contributing cells are
//    unioned and re-filtered to the non-dominated subset — first
//    occurrence wins among duplicates, and cells arrive in the
//    campaign's deterministic order, so a sharded-then-merged report
//    compiles to the bit-identical snapshot of its unsharded twin;
//  * every registered operating mode is resolved to a front index per
//    entry (kModeInapplicable where it cannot bind), making a named-
//    mode decide a table lookup — the property behind the serve
//    suite's millions-of-decisions-per-second-per-core number.
//
// Snapshots are shared via std::shared_ptr<const Snapshot> and swapped
// atomically by PolicyStore; nothing in here is mutated after build().
#ifndef PARMIS_SERVE_SNAPSHOT_HPP
#define PARMIS_SERVE_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/campaign.hpp"
#include "numerics/vec.hpp"
#include "runtime/objectives.hpp"
#include "runtime/selector.hpp"
#include "serve/modes.hpp"

namespace parmis::serve {

/// One servable (scenario, method) pair: its merged Pareto front with
/// everything a decide needs precomputed.
struct PolicyEntry {
  /// Builds the entry's selector over `front_points` (which must
  /// satisfy PolicySelector's preconditions); the remaining fields are
  /// filled in by build_snapshot.
  explicit PolicyEntry(std::vector<num::Vec> front_points)
      : front(std::move(front_points)), selector(front) {}

  std::string scenario;
  std::string method;
  std::vector<std::string> objective_names;
  std::vector<runtime::ObjectiveKind> kinds;
  /// Non-dominated union of the contributing cells' fronts,
  /// minimization convention, in first-seen cell order.
  std::vector<num::Vec> front;
  /// Deployable policy parameters aligned with `front`; empty when any
  /// contributing cell lacked thetas (governors, DyPO, v1 reports) —
  /// a partial theta set could silently pair a decision with the wrong
  /// policy, so it is all or nothing.
  std::vector<num::Vec> thetas;
  double phv = 0.0;        ///< best shared-reference PHV among cells
  std::size_t cells = 0;   ///< contributing (non-error) cells
  runtime::PolicySelector selector;  ///< built over `front`
  /// Front index chosen by registry mode i, or kModeInapplicable.
  std::vector<std::size_t> mode_choice;

  /// Front member `front_index` converted to natural units (maximized
  /// objectives un-negated) — the "objective estimate" a decision
  /// reports back.
  num::Vec raw_objectives(std::size_t front_index) const;
};

/// Per-scenario index into Snapshot::entries.
struct ScenarioEntry {
  /// method name -> entries index, sorted by method name.
  std::map<std::string, std::size_t> methods;
  /// entries index served when a request names no method: the method
  /// with the highest PHV (comparable within a scenario — merged
  /// reports share one reference point per scenario), ties broken
  /// toward the lexicographically smallest name.
  std::size_t default_entry = 0;
};

/// The immutable compiled form (see file comment).
struct Snapshot {
  std::vector<PolicyEntry> entries;  ///< sorted by (scenario, method)
  std::map<std::string, ScenarioEntry> scenarios;
  /// Monotonic install counter (PolicyStore stamps it); responses echo
  /// it so clients can tell which snapshot answered.
  std::uint64_t generation = 0;
  std::vector<std::string> sources;  ///< report paths/labels, build order
  std::size_t skipped_cells = 0;     ///< error or empty-front cells

  const PolicyEntry& entry(std::size_t i) const { return entries[i]; }

  /// Scenario lookup; throws parmis::Error listing the servable
  /// scenario names when unknown.
  const ScenarioEntry& scenario(const std::string& name) const;

  /// (scenario, method) lookup; empty method = the scenario's default
  /// entry.  Throws listing the available names on either miss.
  const PolicyEntry& find(const std::string& scenario_name,
                          const std::string& method_name) const;

  /// Sorted comma-separated scenario names (error-message helper).
  std::string scenario_list() const;
};

/// Compiles reports into a snapshot (see file comment for the rules).
/// `source_names[i]` labels `reports[i]` in errors and Snapshot::
/// sources (typically the file path).  Throws parmis::Error on any
/// validation failure; a snapshot with zero servable entries is one.
Snapshot build_snapshot(const std::vector<exec::CampaignReport>& reports,
                        const std::vector<std::string>& source_names,
                        const ModeRegistry& modes);

}  // namespace parmis::serve

#endif  // PARMIS_SERVE_SNAPSHOT_HPP
