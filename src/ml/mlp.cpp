#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace parmis::ml {

namespace {

/// Layer sizes as a flat list: input, hidden..., output.
std::vector<std::size_t> layer_sizes(const MlpConfig& c) {
  std::vector<std::size_t> sizes;
  sizes.push_back(c.input_dim);
  for (std::size_t h : c.hidden) sizes.push_back(h);
  sizes.push_back(c.output_dim);
  return sizes;
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  require(config_.input_dim > 0, "mlp: input_dim must be positive");
  require(config_.output_dim > 0, "mlp: output_dim must be positive");
  for (std::size_t h : config_.hidden) {
    require(h > 0, "mlp: hidden widths must be positive");
  }
  const auto sizes = layer_sizes(config_);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    weights_.emplace_back(sizes[l + 1], sizes[l], 0.0);
    biases_.emplace_back(sizes[l + 1], 0.0);
    offsets_.push_back(num_params_);
    num_params_ += sizes[l + 1] * sizes[l] + sizes[l + 1];
  }
}

void Mlp::init_xavier(Rng& rng) {
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    num::Matrix& W = weights_[l];
    const double bound =
        std::sqrt(6.0 / static_cast<double>(W.rows() + W.cols()));
    for (auto& w : W.data()) w = rng.uniform(-bound, bound);
    std::fill(biases_[l].begin(), biases_[l].end(), 0.0);
  }
}

Vec Mlp::parameters() const {
  Vec flat;
  flat.reserve(num_params_);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const auto& data = weights_[l].data();
    flat.insert(flat.end(), data.begin(), data.end());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void Mlp::set_parameters(std::span<const double> flat) {
  require(flat.size() == num_params_, "mlp: parameter vector size mismatch");
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto& data = weights_[l].data();
    const double* block = flat.data() + offsets_[l];
    std::copy(block, block + data.size(), data.begin());
    block += data.size();
    std::copy(block, block + biases_[l].size(), biases_[l].begin());
  }
}

Vec Mlp::forward(const Vec& input) const {
  MlpTape tape;
  return forward(input, tape);
}

const Vec& Mlp::forward(const Vec& input, MlpTape& tape) const {
  require(input.size() == config_.input_dim, "mlp: input dim mismatch");
  const std::size_t depth = weights_.size();
  tape.input = input;
  tape.pre_activations.resize(depth);
  tape.post_activations.resize(depth - 1);

  for (std::size_t l = 0; l < depth; ++l) {
    const num::Matrix& W = weights_[l];
    const Vec& a = l == 0 ? tape.input : tape.post_activations[l - 1];
    Vec& z = tape.pre_activations[l];
    z.resize(W.rows());
    // z = W a + b: each row's products summed from 0.0 in column order
    // (Matrix::matvec's order), then the bias added.
    const double* w = W.data().data();
    for (std::size_t r = 0; r < W.rows(); ++r) {
      const double* row = w + r * W.cols();
      double s = 0.0;
      for (std::size_t c = 0; c < W.cols(); ++c) s += row[c] * a[c];
      z[r] = s + biases_[l][r];
    }
    if (l + 1 < depth) {
      Vec& h = tape.post_activations[l];
      h.resize(z.size());
      for (std::size_t i = 0; i < z.size(); ++i) {
        h[i] = z[i] > 0.0 ? z[i] : 0.0;  // ReLU
      }
    }
  }
  return tape.pre_activations.back();  // linear logits
}

const Vec& Mlp::backward(MlpTape& tape, const Vec& dlogits,
                         std::span<double> grad) const {
  require(dlogits.size() == config_.output_dim, "mlp: dlogits dim mismatch");
  require(grad.size() == num_params_, "mlp: grad vector size mismatch");
  const std::size_t depth = weights_.size();
  bool tape_fits = tape.input.size() == config_.input_dim &&
                   tape.pre_activations.size() == depth &&
                   tape.post_activations.size() == depth - 1;
  for (std::size_t l = 0; tape_fits && l < depth; ++l) {
    tape_fits = tape.pre_activations[l].size() == weights_[l].rows();
  }
  require(tape_fits, "mlp: tape does not match the network's layers");

  tape.delta = dlogits;  // dLoss/dz for the current layer
  for (std::size_t li = depth; li-- > 0;) {
    const num::Matrix& W = weights_[li];
    const Vec& a_prev =
        li == 0 ? tape.input : tape.post_activations[li - 1];
    const Vec& delta = tape.delta;

    // dW = delta outer a_prev; db = delta.
    double* gw = grad.data() + offsets_[li];
    for (std::size_t r = 0; r < W.rows(); ++r) {
      const double dr = delta[r];
      double* grow = gw + r * W.cols();
      for (std::size_t c = 0; c < W.cols(); ++c) grow[c] += dr * a_prev[c];
    }
    double* gb = gw + W.rows() * W.cols();
    for (std::size_t r = 0; r < W.rows(); ++r) gb[r] += delta[r];

    // Propagate: dLoss/da_prev = W^T delta (Matrix::matvec_transposed's
    // order), then through ReLU.
    Vec& da = tape.delta_prev;
    da.assign(W.cols(), 0.0);
    const double* w = W.data().data();
    for (std::size_t r = 0; r < W.rows(); ++r) {
      const double* row = w + r * W.cols();
      const double xr = delta[r];
      for (std::size_t c = 0; c < W.cols(); ++c) da[c] += row[c] * xr;
    }
    if (li > 0) {
      const Vec& z_prev = tape.pre_activations[li - 1];
      for (std::size_t i = 0; i < da.size(); ++i) {
        if (z_prev[i] <= 0.0) da[i] = 0.0;
      }
    }
    std::swap(tape.delta, tape.delta_prev);
  }
  return tape.delta;  // dLoss/dinput
}

void Mlp::save(std::ostream& os) const {
  auto write_u64 = [&os](std::uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u64(config_.input_dim);
  write_u64(config_.hidden.size());
  for (std::size_t h : config_.hidden) write_u64(h);
  write_u64(config_.output_dim);
  const Vec flat = parameters();
  os.write(reinterpret_cast<const char*>(flat.data()),
           static_cast<std::streamsize>(flat.size() * sizeof(double)));
  require(os.good(), "mlp: serialization failed");
}

Mlp Mlp::load(std::istream& is) {
  auto read_u64 = [&is]() {
    std::uint64_t v = 0;
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  MlpConfig cfg;
  cfg.input_dim = read_u64();
  const std::uint64_t n_hidden = read_u64();
  require(is.good() && n_hidden < 64, "mlp: corrupt serialized header");
  for (std::uint64_t i = 0; i < n_hidden; ++i) cfg.hidden.push_back(read_u64());
  cfg.output_dim = read_u64();
  Mlp net(cfg);
  Vec flat(net.num_parameters());
  is.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(double)));
  require(is.good(), "mlp: corrupt serialized parameters");
  net.set_parameters(flat);
  return net;
}

std::size_t Mlp::serialized_bytes() const {
  return sizeof(std::uint64_t) * (3 + config_.hidden.size()) +
         num_params_ * sizeof(double);
}

}  // namespace parmis::ml
