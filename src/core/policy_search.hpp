// Binds PaRMIS's abstract theta search to concrete DRM policy evaluation.
//
// A DrmPolicyProblem owns the MLP policy template, the evaluator, and
// the objective set, and exposes the EvaluationFn that Parmis drives:
// theta -> load into the policy -> run the app(s) on the platform ->
// objective vector.  It also rebuilds deployable policies from any theta
// Parmis returns (the offline-to-online hand-off of paper Fig. 1).
#ifndef PARMIS_CORE_POLICY_SEARCH_HPP
#define PARMIS_CORE_POLICY_SEARCH_HPP

#include <memory>
#include <optional>
#include <vector>

#include "core/parmis.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/evaluator.hpp"
#include "soc/platform.hpp"

namespace parmis::core {

/// Application-specific or global DRM policy search problem.
class DrmPolicyProblem {
 public:
  /// Application-specific problem (paper Sec. V-C).  `eval_config`
  /// selects thermal modeling and decision timing for the underlying
  /// evaluator.
  DrmPolicyProblem(soc::Platform& platform, soc::Application app,
                   std::vector<runtime::Objective> objectives,
                   policy::MlpPolicyConfig policy_config = {},
                   runtime::EvaluatorConfig eval_config = {});

  /// Global problem over many applications (paper Sec. V-D).
  DrmPolicyProblem(soc::Platform& platform,
                   std::vector<soc::Application> apps,
                   std::vector<runtime::Objective> objectives,
                   policy::MlpPolicyConfig policy_config = {},
                   runtime::EvaluatorConfig eval_config = {});

  /// dim(theta) of the underlying MLP policy.
  std::size_t theta_dim() const { return policy_->num_parameters(); }
  std::size_t num_objectives() const { return objectives_.size(); }

  /// The evaluation closure for Parmis.  The problem must outlive the
  /// returned function.
  EvaluationFn evaluation_fn();

  /// Constant-decision anchor policies for the initial design: the
  /// canonical operating points any practitioner would measure first
  /// (max performance, big-only, little-only, mid-range, minimum power).
  /// Seeding the GP with these spans the achievable objective range
  /// immediately and mirrors how the governors anchor the paper's plots.
  std::vector<num::Vec> anchor_thetas() const;

  /// Materializes a deployable policy from theta.
  policy::MlpPolicy make_policy(const num::Vec& theta) const;

  /// Full run metrics for theta on one application (reporting).
  runtime::RunMetrics metrics_for(const num::Vec& theta,
                                  const soc::Application& app);

  const std::vector<runtime::Objective>& objectives() const {
    return objectives_;
  }
  bool is_global() const { return global_.has_value(); }

 private:
  soc::Platform* platform_;  // non-owning
  std::vector<runtime::Objective> objectives_;
  std::unique_ptr<policy::MlpPolicy> policy_;  // reused evaluation buffer
  runtime::Evaluator evaluator_;
  std::optional<soc::Application> app_;            // app-specific mode
  std::optional<runtime::GlobalEvaluator> global_; // global mode
};

}  // namespace parmis::core

#endif  // PARMIS_CORE_POLICY_SEARCH_HPP
