// The paper's parametric DRM policy: one MLP per control knob.
//
// "We use one function to make DRM decision for each of the four control
// knobs at each decision epoch ... two hidden layers with the ReLU
// activation and an output layer with the softmax activation.  The
// number of output layer neurons is equal to the number of possible
// actions for the control knob." (paper Sec. V-A)
//
// For the Exynos spec the four heads have 5 / 19 / 4 / 13 outputs
// (a_big, f_big, a_little, f_little).  The concatenation of all head
// parameters is the theta vector that PaRMIS models with GPs; argmax
// over each softmax gives the deterministic runtime decision, and
// sampling gives the stochastic behaviour the RL baseline trains on.
#ifndef PARMIS_POLICY_MLP_POLICY_HPP
#define PARMIS_POLICY_MLP_POLICY_HPP

#include <iosfwd>
#include <vector>

#include "ml/mlp.hpp"
#include "policy/policy.hpp"

namespace parmis::policy {

/// Architecture options for MlpPolicy.
struct MlpPolicyConfig {
  std::vector<std::size_t> hidden = {4, 4};  ///< two ReLU hidden layers
};

/// Multi-head MLP policy over the Table I counter features.
class MlpPolicy final : public Policy {
 public:
  /// Builds heads sized from `space` (two knobs per cluster).  `space`
  /// must outlive the policy.  Weights start at zero; call init_xavier
  /// or set_parameters.
  MlpPolicy(const soc::DecisionSpace& space, MlpPolicyConfig config = {});

  /// Xavier-initializes all heads.
  void init_xavier(Rng& rng);

  /// Total parameter count d = dim(theta) across all heads.
  std::size_t num_parameters() const { return num_params_; }

  /// Flattened theta (head-major) and its inverse.
  num::Vec parameters() const;
  void set_parameters(const num::Vec& theta);

  /// Deterministic decision: argmax over each head's logits.
  soc::DrmDecision decide(const soc::HwCounters& counters) override;

  /// Stochastic decision: samples each knob from softmax(logits).
  /// If `actions_out` is non-null it receives the sampled knob indices
  /// (needed by REINFORCE).
  soc::DrmDecision decide_stochastic(const soc::HwCounters& counters,
                                     Rng& rng,
                                     std::vector<std::size_t>* actions_out);

  std::size_t num_heads() const { return heads_.size(); }
  ml::Mlp& head(std::size_t i);
  const ml::Mlp& head(std::size_t i) const;
  /// Where head `i`'s block starts in the flattened theta.
  std::size_t head_offset(std::size_t i) const;

  const soc::DecisionSpace& decision_space() const { return *space_; }

  std::string name() const override { return "mlp"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<MlpPolicy>(*this);
  }

  /// Builds the flattened theta of a *constant-decision* policy: all
  /// weights zero, each head's output bias one-hot (+`bias_scale`) on
  /// the knob value of `decision`.  With ReLU hidden layers, zero
  /// weights propagate zero activations, so the softmax argmax is the
  /// bias argmax regardless of the counters — the policy always picks
  /// `decision`.  These thetas anchor PaRMIS's initial design on the
  /// canonical operating points (max-performance, powersave, ...).
  static num::Vec constant_decision_theta(const soc::DecisionSpace& space,
                                          const MlpPolicyConfig& config,
                                          const soc::DrmDecision& decision,
                                          double bias_scale = 1.5);

  /// Binary (de)serialization of the full policy.
  void save(std::ostream& os) const;
  static MlpPolicy load(std::istream& is, const soc::DecisionSpace& space);

  /// Total serialized size in bytes (Table II storage figure).
  std::size_t serialized_bytes() const;

 private:
  const soc::DecisionSpace* space_;  // non-owning
  MlpPolicyConfig config_;
  std::vector<ml::Mlp> heads_;
  std::vector<std::size_t> offsets_;  ///< head blocks in theta
  std::size_t num_params_ = 0;
  // decide()/decide_stochastic() scratch, reused across calls and heads.
  ml::MlpTape tape_;
  num::Vec probs_;
  std::vector<int> knobs_;
};

}  // namespace parmis::policy

#endif  // PARMIS_POLICY_MLP_POLICY_HPP
