#include "serve/server.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace parmis::serve {

// Error strings here are built only inside the failure branches: the
// decide path runs millions of times per second, and an eagerly
// constructed message argument would put allocations on every call.

namespace {

void validate_counter(const std::optional<double>& v, const char* name) {
  if (v.has_value() && !std::isfinite(*v)) {
    require(false, std::string("serve: workload counter \"") + name +
                       "\" must be finite");
  }
}

std::string objective_list(const PolicyEntry& entry) {
  std::string out;
  for (const auto& name : entry.objective_names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

const char* auto_mode(const Workload& workload) {
  if (workload.thermal_headroom_c.has_value() &&
      *workload.thermal_headroom_c <= 5.0) {
    return "thermal-critical";
  }
  if (workload.battery_pct.has_value() && *workload.battery_pct < 20.0) {
    return "powersave";
  }
  if (workload.load.has_value() && *workload.load >= 0.9) {
    return "performance";
  }
  return "balanced";
}

Decision PolicyServer::decide_on(const Snapshot& snapshot,
                                 const DecideRequest& request) const {
  // Sampled (1/256 per thread): an unconditional clock pair would cost
  // a measurable fraction of the ~tens-of-ns decide path and break the
  // <2% overhead budget `perf_suite serve` enforces.
  PARMIS_SCOPED_LATENCY_SAMPLED("parmis_serve_decide_ns", 256);
  validate_counter(request.workload.thermal_headroom_c,
                   "thermal_headroom_c");
  validate_counter(request.workload.battery_pct, "battery_pct");
  validate_counter(request.workload.load, "load");

  const PolicyEntry& entry = snapshot.find(request.scenario, request.method);
  Decision decision;
  decision.entry = &entry;

  if (!request.weights.empty()) {
    if (!request.mode.empty()) {
      require(false, "serve: give a mode or explicit weights, not both");
    }
    num::Vec weights(entry.objective_names.size(), 0.0);
    for (const auto& [name, w] : request.weights) {
      std::size_t j = entry.objective_names.size();
      for (std::size_t i = 0; i < entry.objective_names.size(); ++i) {
        if (entry.objective_names[i] == name) j = i;
      }
      if (j == entry.objective_names.size()) {
        require(false, "serve: unknown objective for scenario " +
                           entry.scenario + ": " + name +
                           " (objectives: " + objective_list(entry) + ")");
      }
      weights[j] = w;  // selector validates >= 0 and a positive sum
    }
    decision.index = entry.selector.select(weights);
    decision.mode = "weights";
    return decision;
  }

  std::string mode_name = request.mode.empty() ? "balanced" : request.mode;
  if (mode_name == "auto") mode_name = auto_mode(request.workload);

  const std::size_t mode_index = store_->modes().index_of(mode_name);
  const std::size_t choice = entry.mode_choice[mode_index];
  if (choice == kModeInapplicable) {
    require(false, "serve: mode " + mode_name +
                       " is inapplicable to scenario " + entry.scenario +
                       " (objectives: " + objective_list(entry) + ")");
  }
  decision.index = choice;
  decision.mode = std::move(mode_name);
  return decision;
}

std::pair<Decision, std::shared_ptr<const Snapshot>> PolicyServer::decide(
    const DecideRequest& request) const {
  std::shared_ptr<const Snapshot> snapshot = store_->require_snapshot();
  Decision decision = decide_on(*snapshot, request);
  return {std::move(decision), std::move(snapshot)};
}

PolicyServer::Batch PolicyServer::decide_batch(
    const std::vector<DecideRequest>& requests) const {
  Batch batch;
  batch.snapshot = store_->require_snapshot();
  batch.decisions.reserve(requests.size());
  for (const DecideRequest& request : requests) {
    batch.decisions.push_back(decide_on(*batch.snapshot, request));
  }
  return batch;
}

}  // namespace parmis::serve
