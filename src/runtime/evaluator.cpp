#include "runtime/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace parmis::runtime {

Evaluator::Evaluator(soc::Platform& platform, EvaluatorConfig config)
    : platform_(&platform), config_(config) {}

RunMetrics Evaluator::run(policy::Policy& policy,
                          const soc::Application& app) {
  app.validate();
  policy.reset();

  const soc::DecisionSpace& space = platform_->decision_space();
  soc::ThermalModel thermal(config_.thermal_params);

  RunMetrics m;
  m.epochs = app.num_epochs();

  std::optional<soc::DrmDecision> previous;
  soc::HwCounters last_counters;
  double decision_time_us_total = 0.0;
  std::size_t decisions_timed = 0;

  for (std::size_t e = 0; e < app.epochs.size(); ++e) {
    soc::DrmDecision decision;
    if (e == 0) {
      // No counters exist before the first epoch: mid-range default.
      decision = space.default_decision();
    } else if (config_.measure_decision_overhead) {
      Stopwatch sw;
      decision = policy.decide(last_counters);
      decision_time_us_total += sw.micros();
      ++decisions_timed;
    } else {
      decision = policy.decide(last_counters);
    }

    if (config_.enable_thermal) {
      decision = thermal.apply_throttle(platform_->spec(), decision);
    }

    const soc::EpochResult r =
        platform_->run_epoch(app.epochs[e], decision, previous);
    if (config_.enable_thermal) {
      thermal.step(r.avg_power_w, r.time_s);
    }

    m.time_s += r.time_s;
    m.energy_j += r.energy_j;
    m.peak_power_w = std::max(m.peak_power_w, r.avg_power_w);
    // Per-epoch performance per watt: GIPS / W.
    const double gips = app.epochs[e].instructions_g / r.time_s;
    m.ppw_mean += gips / r.avg_power_w;

    previous = decision;
    last_counters = r.counters;
  }

  m.ppw_mean /= static_cast<double>(app.epochs.size());
  m.avg_power_w = m.energy_j / m.time_s;
  m.edp = m.energy_j * m.time_s;
  if (decisions_timed > 0) {
    m.decision_overhead_us =
        decision_time_us_total / static_cast<double>(decisions_timed);
  }
  return m;
}

num::Vec Evaluator::evaluate(policy::Policy& policy,
                             const soc::Application& app,
                             const std::vector<Objective>& objectives) {
  return objective_vector(objectives, run(policy, app));
}

GlobalEvaluator::GlobalEvaluator(soc::Platform& platform,
                                 std::vector<soc::Application> apps,
                                 std::vector<Objective> objectives,
                                 EvaluatorConfig config)
    : evaluator_(platform, config),
      apps_(std::move(apps)),
      objectives_(std::move(objectives)) {
  require(!apps_.empty(), "global evaluator: no applications");
  require(!objectives_.empty(), "global evaluator: no objectives");
  // Reference magnitudes from the default-decision static policy.
  policy::StaticPolicy reference_policy(
      platform.decision_space().default_decision(), "reference");
  for (const soc::Application& app : apps_) {
    const RunMetrics ref_metrics = evaluator_.run(reference_policy, app);
    num::Vec mags;
    for (const auto& o : objectives_) {
      const double mag = std::abs(o.min_value(ref_metrics));
      require(mag > 1e-12, "global evaluator: degenerate reference for " +
                               o.name() + " on " + app.name);
      mags.push_back(mag);
    }
    reference_.push_back(std::move(mags));
  }
}

num::Vec GlobalEvaluator::aggregate_last_metrics() const {
  num::Vec total(objectives_.size(), 0.0);
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    for (std::size_t j = 0; j < objectives_.size(); ++j) {
      total[j] +=
          objectives_[j].min_value(last_metrics_[a]) / reference_[a][j];
    }
  }
  for (double& v : total) v /= static_cast<double>(apps_.size());
  return total;
}

num::Vec GlobalEvaluator::evaluate(policy::Policy& policy) {
  last_metrics_.assign(apps_.size(), RunMetrics{});
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    last_metrics_[a] = evaluator_.run(policy, apps_[a]);
  }
  return aggregate_last_metrics();
}

}  // namespace parmis::runtime
