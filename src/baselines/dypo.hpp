// DyPO-style clustered-oracle baseline (extension; paper Sec. III).
//
// DyPO [Gupta et al., ACM TECS 2017] finds Pareto-optimal configurations
// by exhaustive search and then deploys a coarse classifier over
// *clusters* of operating points.  The paper criticizes exactly this
// coarseness ("the coarse approximation is significantly sub-optimal"),
// so this baseline exists to quantify that claim on our substrate:
//  1. cluster the application's epochs by their counter features
//     (k-means, default-decision rollout),
//  2. per cluster and per scalarization, exhaustively pick the single
//     decision minimizing the cluster's mean scalarized cost,
//  3. deploy a nearest-centroid lookup policy.
#ifndef PARMIS_BASELINES_DYPO_HPP
#define PARMIS_BASELINES_DYPO_HPP

#include <vector>

#include "baselines/il.hpp"
#include "baselines/scalarization.hpp"
#include "policy/policy.hpp"

namespace parmis::baselines {

/// Nearest-centroid lookup policy produced by the DyPO pipeline.
class DypoPolicy final : public policy::Policy {
 public:
  DypoPolicy(std::vector<num::Vec> centroids,
             std::vector<soc::DrmDecision> decisions);

  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  std::string name() const override { return "dypo"; }

  std::size_t num_clusters() const { return centroids_.size(); }

 private:
  std::vector<num::Vec> centroids_;
  std::vector<soc::DrmDecision> decisions_;
};

/// Runs the DyPO pipeline for one scalarization.
DypoPolicy dypo_train(soc::Platform& platform, const soc::Application& app,
                      const std::vector<runtime::Objective>& objectives,
                      const OracleTable& table, const num::Vec& weights,
                      std::size_t num_clusters, std::uint64_t seed);

}  // namespace parmis::baselines

#endif  // PARMIS_BASELINES_DYPO_HPP
