#include "baselines/dypo.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace parmis::baselines {

namespace {

/// Plain k-means over feature vectors; returns centroids and assignment.
std::pair<std::vector<num::Vec>, std::vector<std::size_t>> kmeans(
    const std::vector<num::Vec>& points, std::size_t k, Rng& rng,
    std::size_t iterations = 25) {
  require(!points.empty(), "kmeans: empty input");
  k = std::min(k, points.size());
  std::vector<num::Vec> centroids;
  // Forgy init on distinct random points.
  std::vector<std::size_t> perm(points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  for (std::size_t c = 0; c < k; ++c) centroids.push_back(points[perm[c]]);

  std::vector<std::size_t> assign(points.size(), 0);
  for (std::size_t it = 0; it < iterations; ++it) {
    bool changed = false;
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = num::squared_distance(points[i], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assign[i] != best) {
        assign[i] = best;
        changed = true;
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      num::Vec mean(points.front().size(), 0.0);
      std::size_t count = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (assign[i] != c) continue;
        num::axpy(1.0, points[i], mean);
        ++count;
      }
      if (count > 0) {
        for (double& v : mean) v /= static_cast<double>(count);
        centroids[c] = std::move(mean);
      }
    }
    if (!changed) break;
  }
  return {centroids, assign};
}

}  // namespace

DypoPolicy::DypoPolicy(std::vector<num::Vec> centroids,
                       std::vector<soc::DrmDecision> decisions)
    : centroids_(std::move(centroids)), decisions_(std::move(decisions)) {
  require(!centroids_.empty(), "dypo: need at least one cluster");
  require(centroids_.size() == decisions_.size(),
          "dypo: centroid/decision count mismatch");
}

soc::DrmDecision DypoPolicy::decide(const soc::HwCounters& counters) {
  const num::Vec f = counters.to_features();
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    const double d = num::squared_distance(f, centroids_[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return decisions_[best];
}

DypoPolicy dypo_train(soc::Platform& platform, const soc::Application& app,
                      const std::vector<runtime::Objective>& objectives,
                      const OracleTable& table, const num::Vec& weights,
                      std::size_t num_clusters, std::uint64_t seed) {
  require(table.num_epochs() == app.num_epochs(),
          "dypo: oracle table does not match application");
  const soc::DecisionSpace& space = platform.decision_space();

  // Epoch features from a default-decision rollout.
  std::vector<num::Vec> features;
  {
    std::optional<soc::DrmDecision> prev;
    const soc::DrmDecision d = space.default_decision();
    for (const auto& epoch : app.epochs) {
      const soc::EpochResult r = platform.run_epoch(epoch, d, prev);
      features.push_back(r.counters.to_features());
      prev = d;
    }
  }

  Rng rng(seed);
  auto [centroids, assign] = kmeans(features, num_clusters, rng);

  // Per cluster: the single decision minimizing mean scalarized cost.
  std::vector<soc::DrmDecision> decisions;
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    std::vector<std::size_t> members;
    for (std::size_t e = 0; e < assign.size(); ++e) {
      if (assign[e] == c) members.push_back(e);
    }
    if (members.empty()) {
      decisions.push_back(space.default_decision());
      continue;
    }
    // DyPO's per-cluster single operating point: the decision whose
    // summed scalarized cost over the cluster's epochs is lowest.
    const std::size_t best_d =
        table.best_decision_index(members, weights, objectives);
    decisions.push_back(space.decision(best_d));
  }
  return DypoPolicy(std::move(centroids), std::move(decisions));
}

}  // namespace parmis::baselines
