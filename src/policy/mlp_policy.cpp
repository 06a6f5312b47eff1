#include "policy/mlp_policy.hpp"

#include <istream>
#include <ostream>
#include <span>

#include "ml/softmax.hpp"

namespace parmis::policy {

MlpPolicy::MlpPolicy(const soc::DecisionSpace& space, MlpPolicyConfig config)
    : space_(&space), config_(std::move(config)) {
  const std::vector<int> cards = space.knob_cardinalities();
  heads_.reserve(cards.size());
  for (int card : cards) {
    ml::MlpConfig mc;
    mc.input_dim = soc::kNumCounterFeatures;
    mc.hidden = config_.hidden;
    mc.output_dim = static_cast<std::size_t>(card);
    heads_.emplace_back(mc);
    offsets_.push_back(num_params_);
    num_params_ += heads_.back().num_parameters();
  }
}

void MlpPolicy::init_xavier(Rng& rng) {
  for (auto& head : heads_) head.init_xavier(rng);
}

num::Vec MlpPolicy::parameters() const {
  num::Vec theta;
  theta.reserve(num_params_);
  for (const auto& head : heads_) {
    const num::Vec p = head.parameters();
    theta.insert(theta.end(), p.begin(), p.end());
  }
  return theta;
}

void MlpPolicy::set_parameters(const num::Vec& theta) {
  // Runs on every training step: the message is built only on failure.
  if (theta.size() != num_params_) {
    require(false, "mlp policy: theta size mismatch (expected " +
                       std::to_string(num_params_) + ", got " +
                       std::to_string(theta.size()) + ")");
  }
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    heads_[h].set_parameters(std::span<const double>(theta).subspan(
        offsets_[h], heads_[h].num_parameters()));
  }
}

soc::DrmDecision MlpPolicy::decide(const soc::HwCounters& counters) {
  const num::Vec features = counters.to_features();
  knobs_.resize(heads_.size());
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    knobs_[h] =
        static_cast<int>(ml::argmax(heads_[h].forward(features, tape_)));
  }
  return space_->from_knobs(knobs_);
}

soc::DrmDecision MlpPolicy::decide_stochastic(
    const soc::HwCounters& counters, Rng& rng,
    std::vector<std::size_t>* actions_out) {
  const num::Vec features = counters.to_features();
  knobs_.resize(heads_.size());
  if (actions_out) actions_out->clear();
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    const std::size_t action = ml::sample_softmax(
        heads_[h].forward(features, tape_), rng, probs_);
    knobs_[h] = static_cast<int>(action);
    if (actions_out) actions_out->push_back(action);
  }
  return space_->from_knobs(knobs_);
}

ml::Mlp& MlpPolicy::head(std::size_t i) {
  require(i < heads_.size(), "mlp policy: head index out of range");
  return heads_[i];
}

const ml::Mlp& MlpPolicy::head(std::size_t i) const {
  require(i < heads_.size(), "mlp policy: head index out of range");
  return heads_[i];
}

std::size_t MlpPolicy::head_offset(std::size_t i) const {
  require(i < heads_.size(), "mlp policy: head index out of range");
  return offsets_[i];
}

num::Vec MlpPolicy::constant_decision_theta(const soc::DecisionSpace& space,
                                            const MlpPolicyConfig& config,
                                            const soc::DrmDecision& decision,
                                            double bias_scale) {
  MlpPolicy policy(space, config);  // zero-initialized heads
  const std::vector<int> knobs = space.to_knobs(decision);
  num::Vec theta(policy.num_parameters(), 0.0);
  // Locate each head's final-layer bias block within the flat vector.
  std::size_t offset = 0;
  for (std::size_t h = 0; h < policy.heads_.size(); ++h) {
    const ml::Mlp& head = policy.heads_[h];
    const std::size_t head_params = head.num_parameters();
    const std::size_t out_dim = head.config().output_dim;
    // The last out_dim entries of a head's block are its output biases.
    const std::size_t bias_start = offset + head_params - out_dim;
    theta[bias_start + static_cast<std::size_t>(knobs[h])] = bias_scale;
    offset += head_params;
  }
  return theta;
}

void MlpPolicy::save(std::ostream& os) const {
  for (const auto& head : heads_) head.save(os);
}

MlpPolicy MlpPolicy::load(std::istream& is, const soc::DecisionSpace& space) {
  MlpPolicy policy(space);  // head count and output sizes from the space
  policy.num_params_ = 0;
  for (std::size_t i = 0; i < policy.heads_.size(); ++i) {
    ml::Mlp loaded = ml::Mlp::load(is);
    require(loaded.config().input_dim == soc::kNumCounterFeatures,
            "mlp policy load: head input dimension mismatch");
    require(loaded.config().output_dim ==
                policy.heads_[i].config().output_dim,
            "mlp policy load: head output dimension mismatch");
    policy.offsets_[i] = policy.num_params_;
    policy.num_params_ += loaded.num_parameters();
    policy.heads_[i] = std::move(loaded);
  }
  if (!policy.heads_.empty()) {
    policy.config_.hidden = policy.heads_.front().config().hidden;
  }
  return policy;
}

std::size_t MlpPolicy::serialized_bytes() const {
  std::size_t bytes = 0;
  for (const auto& head : heads_) bytes += head.serialized_bytes();
  return bytes;
}

}  // namespace parmis::policy
