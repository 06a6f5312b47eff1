// Minimal multi-layer perceptron with manual backpropagation.
//
// The paper represents each DRM control knob with one MLP: "two hidden
// layers with the ReLU activation and an output layer with the softmax
// activation" (paper Sec. V-A).  This class implements the pre-softmax
// network (softmax lives in softmax.hpp so that losses can use the
// numerically fused log-softmax form).  It exposes a flat parameter
// vector so PaRMIS can treat policy weights as the GP input theta, and a
// tape-based backward pass so IL (cross-entropy) and RL (REINFORCE) can
// train the same network.
#ifndef PARMIS_ML_MLP_HPP
#define PARMIS_ML_MLP_HPP

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vec.hpp"

namespace parmis::ml {

using num::Vec;

/// Architecture of an MLP: input -> hidden (ReLU) ... -> linear logits.
struct MlpConfig {
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden;  ///< e.g. {8, 8} = two hidden layers
  std::size_t output_dim = 0;
};

/// Intermediate activations recorded by forward() for backward(), plus
/// backward()'s scratch.  A tape reused across calls (and across
/// networks) allocates only when a layer is wider than any it held
/// before, so a training loop that keeps its tapes makes no per-sample
/// heap allocations.
struct MlpTape {
  Vec input;
  std::vector<Vec> pre_activations;   ///< z_l = W_l a_{l-1} + b_l
  std::vector<Vec> post_activations;  ///< a_l = relu(z_l) (hidden only)
  Vec delta;                          ///< backward: dLoss/dz of a layer
  Vec delta_prev;                     ///< backward: the layer below's
};

/// Feed-forward network with ReLU hidden layers and linear output.
class Mlp {
 public:
  /// Builds the network with zero weights; call init_xavier or
  /// set_parameters before use.
  explicit Mlp(MlpConfig config);

  const MlpConfig& config() const { return config_; }

  /// Total number of scalar parameters (weights + biases).
  std::size_t num_parameters() const { return num_params_; }

  /// Xavier/Glorot-uniform initialization of all weights (biases zero).
  void init_xavier(Rng& rng);

  /// Copies all parameters into a flat vector (layer-major, weights
  /// row-major then biases, layer by layer).
  Vec parameters() const;

  /// Loads parameters from a flat block of exactly num_parameters()
  /// values (a Vec, or one head's slice of a policy's theta).
  void set_parameters(std::span<const double> flat);
  void set_parameters(const Vec& flat) {
    set_parameters(std::span<const double>(flat));
  }

  /// Forward pass returning logits (through a fresh tape).
  Vec forward(const Vec& input) const;

  /// Forward pass that records the tape needed for backward(); returns
  /// the logits, which live in `tape` until its next forward().
  const Vec& forward(const Vec& input, MlpTape& tape) const;

  /// Backward pass: given dLoss/dlogits, accumulates dLoss/dparams into
  /// `grad` (which must have num_parameters() entries; contents are
  /// added to, enabling minibatch accumulation — each entry receives
  /// exactly one addition per call).  Returns dLoss/dinput, which lives
  /// in `tape`'s scratch until its next backward().
  const Vec& backward(MlpTape& tape, const Vec& dlogits,
                      std::span<double> grad) const;

  /// Binary serialization (config + parameters).
  void save(std::ostream& os) const;
  static Mlp load(std::istream& is);

  /// Serialized size in bytes (the Table II "memory per policy" figure).
  std::size_t serialized_bytes() const;

 private:
  MlpConfig config_;
  std::vector<num::Matrix> weights_;  ///< one per layer
  std::vector<Vec> biases_;
  std::vector<std::size_t> offsets_;  ///< layer l's block in the flat vector
  std::size_t num_params_ = 0;
};

}  // namespace parmis::ml

#endif  // PARMIS_ML_MLP_HPP
