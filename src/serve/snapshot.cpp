#include "serve/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "moo/pareto.hpp"

namespace parmis::serve {

namespace {

/// Accumulated raw material of one (scenario, method) entry before
/// non-dominated filtering.
struct Staging {
  std::vector<std::string> objective_names;
  std::vector<num::Vec> points;  ///< union of cell fronts, cell order
  std::vector<num::Vec> thetas;  ///< aligned with points while complete
  bool thetas_complete = true;
  double phv = 0.0;
  std::size_t cells = 0;
};

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

num::Vec PolicyEntry::raw_objectives(std::size_t front_index) const {
  require(front_index < front.size(), "serve: front index out of range");
  const num::Vec& p = front[front_index];
  num::Vec raw(p.size());
  for (std::size_t j = 0; j < p.size(); ++j) {
    raw[j] = runtime::Objective(kinds[j]).to_raw(p[j]);
  }
  return raw;
}

const ScenarioEntry& Snapshot::scenario(const std::string& name) const {
  const auto it = scenarios.find(name);
  if (it == scenarios.end()) {  // build the message only off the hot path
    require(false, "unknown scenario: " + name +
                       " (servable: " + scenario_list() + ")");
  }
  return it->second;
}

const PolicyEntry& Snapshot::find(const std::string& scenario_name,
                                  const std::string& method_name) const {
  const ScenarioEntry& s = scenario(scenario_name);
  if (method_name.empty()) return entries[s.default_entry];
  const auto it = s.methods.find(method_name);
  if (it == s.methods.end()) {
    std::vector<std::string> names;
    for (const auto& [method, idx] : s.methods) {
      (void)idx;
      names.push_back(method);
    }
    require(false, "unknown method for scenario " + scenario_name + ": " +
                       method_name + " (servable: " + join_names(names) +
                       ")");
  }
  return entries[it->second];
}

std::string Snapshot::scenario_list() const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : scenarios) {
    (void)entry;
    names.push_back(name);
  }
  return join_names(names);  // map order is already sorted
}

Snapshot build_snapshot(const std::vector<exec::CampaignReport>& reports,
                        const std::vector<std::string>& source_names,
                        const ModeRegistry& modes) {
  require(reports.size() == source_names.size(),
          "serve: one source name per report required");
  require(!reports.empty(), "serve: no reports to build a snapshot from");

  // Group cells by (scenario, method) in campaign order; the ordered
  // map only orders the *entries* — within a group, points keep cell
  // order, which is shard-independent after report::merge, so merged
  // and unsharded reports stage identical unions.
  std::map<std::pair<std::string, std::string>, Staging> groups;
  // First-seen objective names per scenario, with the defining source
  // for the error message when a later report disagrees.
  std::map<std::string, std::pair<std::vector<std::string>, std::string>>
      scenario_objectives;
  std::size_t skipped = 0;

  for (std::size_t r = 0; r < reports.size(); ++r) {
    const exec::CampaignReport& report = reports[r];
    const std::string& source = source_names[r];
    require(!report.partial,
            "serve: " + source +
                " is a partial merge (provisional PHV); merge a complete "
                "shard set before serving");
    for (const exec::CellResult& cell : report.cells) {
      if (!cell.error.empty() || cell.front.empty()) {
        ++skipped;
        continue;
      }
      const std::size_t k = cell.objective_names.size();
      const std::string where = "serve: " + source + ": cell " +
                                cell.scenario + "/" + cell.method;
      require(k >= 1, where + ": no objectives");
      for (const num::Vec& p : cell.front) {
        require(p.size() == k, where + ": ragged front");
      }
      require(cell.pareto_thetas.empty() ||
                  cell.pareto_thetas.size() == cell.front.size(),
              where + ": pareto_thetas misaligned with front");
      // Every name must map to a known kind (throws listing them), and
      // once: a decision's objectives are one JSON object keyed by name.
      for (std::size_t j = 0; j < k; ++j) {
        const std::string& name = cell.objective_names[j];
        (void)runtime::objective_kind_from_name(name);
        for (std::size_t i = 0; i < j; ++i) {
          if (cell.objective_names[i] == name) {
            require(false, where + ": duplicate objective \"" + name + "\"");
          }
        }
      }
      auto [so, inserted] = scenario_objectives.try_emplace(
          cell.scenario, cell.objective_names, source);
      require(inserted || so->second.first == cell.objective_names,
              where + ": objective set [" + join_names(cell.objective_names) +
                  "] disagrees with [" + join_names(so->second.first) +
                  "] from " + so->second.second);

      Staging& g = groups[{cell.scenario, cell.method}];
      if (g.cells == 0) g.objective_names = cell.objective_names;
      for (std::size_t i = 0; i < cell.front.size(); ++i) {
        g.points.push_back(cell.front[i]);
        if (g.thetas_complete && !cell.pareto_thetas.empty()) {
          g.thetas.push_back(cell.pareto_thetas[i]);
        }
      }
      if (cell.pareto_thetas.empty()) {
        g.thetas_complete = false;
        g.thetas.clear();
      }
      g.phv = std::max(g.phv, cell.phv);
      ++g.cells;
    }
  }
  require(!groups.empty(),
          "serve: no servable cells (every cell errored or has an empty "
          "front)");

  Snapshot snap;
  snap.sources = source_names;
  snap.skipped_cells = skipped;
  snap.entries.reserve(groups.size());

  for (auto& [key, g] : groups) {
    // Re-filter the union to its non-dominated subset.  First
    // occurrence wins among duplicates and input order is the
    // deterministic campaign cell order, so this is reproducible.
    const std::vector<std::size_t> keep =
        moo::non_dominated_indices(g.points);
    std::vector<num::Vec> front;
    front.reserve(keep.size());
    for (std::size_t i : keep) front.push_back(std::move(g.points[i]));

    PolicyEntry entry(std::move(front));
    entry.scenario = key.first;
    entry.method = key.second;
    entry.objective_names = std::move(g.objective_names);
    entry.kinds.reserve(entry.objective_names.size());
    for (const std::string& name : entry.objective_names) {
      entry.kinds.push_back(runtime::objective_kind_from_name(name));
    }
    if (g.thetas_complete) {
      entry.thetas.reserve(keep.size());
      for (std::size_t i : keep) {
        entry.thetas.push_back(std::move(g.thetas[i]));
      }
    }
    entry.phv = g.phv;
    entry.cells = g.cells;

    // Resolve every registered mode once; decide() then indexes this
    // table instead of running a selector.
    entry.mode_choice.reserve(modes.modes().size());
    for (const OperatingMode& mode : modes.modes()) {
      num::Vec weights;
      std::size_t best_for = 0;
      if (!resolve_mode(mode, entry.kinds, &weights, &best_for)) {
        entry.mode_choice.push_back(kModeInapplicable);
        continue;
      }
      switch (mode.rule) {
        case ModeRule::KneePoint:
          entry.mode_choice.push_back(entry.selector.knee_point());
          break;
        case ModeRule::BestFor:
          entry.mode_choice.push_back(
              entry.selector.best_for_objective(best_for));
          break;
        case ModeRule::Weights:
          entry.mode_choice.push_back(entry.selector.select(weights));
          break;
      }
    }
    snap.entries.push_back(std::move(entry));
  }

  // Scenario index + default method: highest PHV wins, ties toward the
  // lexicographically smallest method name (entries iterate sorted, so
  // keeping strict improvements implements the tie-break).  PHV values
  // are comparable within a scenario of one merged report; across
  // independently produced report files the comparison is best-effort.
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    const PolicyEntry& entry = snap.entries[i];
    auto [it, inserted] = snap.scenarios.try_emplace(entry.scenario);
    ScenarioEntry& s = it->second;
    s.methods.emplace(entry.method, i);
    if (inserted || entry.phv > snap.entries[s.default_entry].phv) {
      s.default_entry = i;
    }
  }
  return snap;
}

}  // namespace parmis::serve
