// Softmax, log-softmax, categorical sampling, and cross-entropy loss.
//
// These free functions sit outside Mlp so that the loss can use the fused
// log-softmax gradient (softmax(z) - onehot) without the network knowing
// about its training objective.
#ifndef PARMIS_ML_SOFTMAX_HPP
#define PARMIS_ML_SOFTMAX_HPP

#include <cstddef>

#include "common/rng.hpp"
#include "numerics/vec.hpp"

namespace parmis::ml {

using num::Vec;

/// Numerically stable softmax (subtracts the max logit).
Vec softmax(const Vec& logits);
/// The same into `out` (resized to match), for loops that reuse a buffer.
void softmax(const Vec& logits, Vec& out);

/// Numerically stable log-softmax.
Vec log_softmax(const Vec& logits);
/// The same into `out` (resized to match).
void log_softmax(const Vec& logits, Vec& out);

/// Index of the largest logit (ties -> smallest index).
std::size_t argmax(const Vec& values);

/// Samples an action index from softmax(logits) — RL exploration.
std::size_t sample_softmax(const Vec& logits, Rng& rng);
/// The same draw, with softmax(logits) written into the reused `probs`.
std::size_t sample_softmax(const Vec& logits, Rng& rng, Vec& probs);

/// Cross-entropy loss for an integer label plus its gradient w.r.t. the
/// logits (softmax - onehot).  Used by imitation learning.
struct CrossEntropyResult {
  double loss = 0.0;
  Vec dlogits;
};
CrossEntropyResult cross_entropy(const Vec& logits, std::size_t label);
/// The same loss, with the gradient written into `dlogits` (resized).
double cross_entropy(const Vec& logits, std::size_t label, Vec& dlogits);

/// Entropy of softmax(logits) in nats (exploration bonus for RL).
double softmax_entropy(const Vec& logits);

}  // namespace parmis::ml

#endif  // PARMIS_ML_SOFTMAX_HPP
