// Unit + gradient-check tests for src/ml: MLP forward/backward, softmax
// and losses, optimizers, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/mlp.hpp"
#include "ml/optimizer.hpp"
#include "ml/softmax.hpp"

namespace parmis::ml {
namespace {

using num::Vec;

// ------------------------------------------------------------------- mlp

TEST(Mlp, ParameterCountMatchesArchitecture) {
  Mlp net({.input_dim = 9, .hidden = {4, 4}, .output_dim = 5});
  // 9*4+4 + 4*4+4 + 4*5+5 = 40 + 20 + 25 = 85
  EXPECT_EQ(net.num_parameters(), 85u);
}

TEST(Mlp, NoHiddenLayerIsLinearModel) {
  Mlp net({.input_dim = 2, .hidden = {}, .output_dim = 1});
  net.set_parameters({2.0, -3.0, 0.5});  // W = [2,-3], b = 0.5
  const Vec out = net.forward({1.0, 1.0});
  EXPECT_DOUBLE_EQ(out[0], -0.5);
}

TEST(Mlp, HandComputedForwardWithRelu) {
  // 1 input -> 2 hidden (ReLU) -> 1 output.
  Mlp net({.input_dim = 1, .hidden = {2}, .output_dim = 1});
  // Layout: W1 (2x1) = [1, -1], b1 = [0, 0], W2 (1x2) = [1, 1], b2 = [0].
  net.set_parameters({1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0});
  // x = 2: hidden = relu([2, -2]) = [2, 0]; out = 2.
  EXPECT_DOUBLE_EQ(net.forward({2.0})[0], 2.0);
  // x = -3: hidden = relu([-3, 3]) = [0, 3]; out = 3.
  EXPECT_DOUBLE_EQ(net.forward({-3.0})[0], 3.0);
}

TEST(Mlp, ParameterRoundTrip) {
  Rng rng(1);
  Mlp net({.input_dim = 5, .hidden = {7, 3}, .output_dim = 4});
  net.init_xavier(rng);
  const Vec p = net.parameters();
  Mlp other({.input_dim = 5, .hidden = {7, 3}, .output_dim = 4});
  other.set_parameters(p);
  EXPECT_EQ(other.parameters(), p);
  const Vec x = {0.1, -0.2, 0.3, 0.4, -0.5};
  EXPECT_EQ(net.forward(x), other.forward(x));
}

TEST(Mlp, SetParametersRejectsWrongSize) {
  Mlp net({.input_dim = 2, .hidden = {}, .output_dim = 1});
  EXPECT_THROW(net.set_parameters({1.0}), Error);
}

TEST(Mlp, XavierInitKeepsActivationsBounded) {
  Rng rng(2);
  Mlp net({.input_dim = 9, .hidden = {8, 8}, .output_dim = 19});
  net.init_xavier(rng);
  const Vec p = net.parameters();
  double max_abs = 0.0;
  for (double v : p) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_LE(max_abs, 1.0);  // xavier bound for these widths
  EXPECT_GT(max_abs, 0.0);  // actually initialized
}

TEST(Mlp, ValidatesConfiguration) {
  EXPECT_THROW(Mlp({.input_dim = 0, .hidden = {}, .output_dim = 1}), Error);
  EXPECT_THROW(Mlp({.input_dim = 1, .hidden = {0}, .output_dim = 1}), Error);
  EXPECT_THROW(Mlp({.input_dim = 1, .hidden = {}, .output_dim = 0}), Error);
}

/// Finite-difference gradient check of the full backward pass.
class MlpGradCheck
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(MlpGradCheck, BackwardMatchesFiniteDifferences) {
  const std::vector<std::size_t> hidden = GetParam();
  Rng rng(3);
  Mlp net({.input_dim = 4, .hidden = hidden, .output_dim = 3});
  net.init_xavier(rng);

  const Vec x = {0.2, -0.7, 1.1, 0.05};
  const std::size_t label = 1;

  // Analytic gradient via cross-entropy loss.
  MlpTape tape;
  const Vec logits = net.forward(x, tape);
  const auto ce = cross_entropy(logits, label);
  Vec grad(net.num_parameters(), 0.0);
  net.backward(tape, ce.dlogits, grad);

  // Numeric gradient on a random subset of parameters.
  Vec params = net.parameters();
  const double eps = 1e-6;
  for (int check = 0; check < 25; ++check) {
    const std::size_t i = rng.uniform_index(params.size());
    const double saved = params[i];
    params[i] = saved + eps;
    net.set_parameters(params);
    const double up = cross_entropy(net.forward(x), label).loss;
    params[i] = saved - eps;
    net.set_parameters(params);
    const double down = cross_entropy(net.forward(x), label).loss;
    params[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-5)
        << "param " << i << " hidden=" << hidden.size();
  }
  net.set_parameters(params);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MlpGradCheck,
    ::testing::Values(std::vector<std::size_t>{},
                      std::vector<std::size_t>{6},
                      std::vector<std::size_t>{4, 4},
                      std::vector<std::size_t>{8, 8, 8}));

TEST(Mlp, BackwardReturnsInputGradient) {
  Rng rng(4);
  Mlp net({.input_dim = 3, .hidden = {5}, .output_dim = 2});
  net.init_xavier(rng);
  const Vec x = {0.5, -0.5, 1.0};
  MlpTape tape;
  const Vec logits = net.forward(x, tape);
  const auto ce = cross_entropy(logits, 0);
  Vec grad(net.num_parameters(), 0.0);
  const Vec dx = net.backward(tape, ce.dlogits, grad);
  ASSERT_EQ(dx.size(), 3u);
  // Finite-difference check on the input gradient.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    Vec xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (cross_entropy(net.forward(xp), 0).loss -
                            cross_entropy(net.forward(xm), 0).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, 1e-5);
  }
}

TEST(Mlp, BackwardAccumulatesIntoGrad) {
  Rng rng(5);
  Mlp net({.input_dim = 2, .hidden = {3}, .output_dim = 2});
  net.init_xavier(rng);
  MlpTape tape;
  const Vec logits = net.forward({1.0, -1.0}, tape);
  const auto ce = cross_entropy(logits, 0);
  Vec grad_once(net.num_parameters(), 0.0);
  net.backward(tape, ce.dlogits, grad_once);
  Vec grad_twice(net.num_parameters(), 0.0);
  net.backward(tape, ce.dlogits, grad_twice);
  net.backward(tape, ce.dlogits, grad_twice);
  for (std::size_t i = 0; i < grad_once.size(); ++i) {
    EXPECT_NEAR(grad_twice[i], 2.0 * grad_once[i], 1e-12);
  }
}

TEST(Mlp, SerializationRoundTrip) {
  Rng rng(6);
  Mlp net({.input_dim = 9, .hidden = {4, 4}, .output_dim = 13});
  net.init_xavier(rng);
  std::stringstream buffer;
  net.save(buffer);
  EXPECT_EQ(static_cast<std::size_t>(buffer.str().size()),
            net.serialized_bytes());
  Mlp loaded = Mlp::load(buffer);
  EXPECT_EQ(loaded.parameters(), net.parameters());
  const Vec x(9, 0.3);
  EXPECT_EQ(loaded.forward(x), net.forward(x));
}

TEST(Mlp, LoadRejectsCorruptStream) {
  std::stringstream buffer("garbage");
  EXPECT_THROW(Mlp::load(buffer), Error);
}

TEST(Mlp, BackwardRejectsMismatchedTapeAndSizes) {
  Rng rng(9);
  Mlp net({.input_dim = 2, .hidden = {3}, .output_dim = 2});
  net.init_xavier(rng);
  MlpTape tape;
  const Vec logits = net.forward({1.0, 0.0}, tape);
  Vec grad(net.num_parameters(), 0.0);
  EXPECT_THROW(net.backward(tape, {1.0}, grad), Error);  // wrong dlogits
  Vec small_grad(3, 0.0);
  EXPECT_THROW(net.backward(tape, {1.0, 0.0}, small_grad), Error);
  Mlp deeper({.input_dim = 2, .hidden = {3, 3}, .output_dim = 2});
  Vec grad2(deeper.num_parameters(), 0.0);
  EXPECT_THROW(deeper.backward(tape, {1.0, 0.0}, grad2), Error);
  // Same depth, other widths: the tape's layers do not fit this net.
  Mlp wider({.input_dim = 2, .hidden = {5}, .output_dim = 2});
  Vec grad3(wider.num_parameters(), 0.0);
  EXPECT_THROW(wider.backward(tape, {1.0, 0.0}, grad3), Error);
}

bool same_bits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Mlp, ReusedTapeMatchesFreshTapeBitForBit) {
  // One tape carried across inputs and across heads of other widths
  // (as the IL/RL training loops and MlpPolicy::decide use it) gives
  // the logits, input gradient and parameter gradient of a fresh tape.
  Rng rng(10);
  std::vector<Mlp> heads;
  for (std::size_t out : {5u, 19u, 4u, 13u}) {
    heads.emplace_back(
        MlpConfig{.input_dim = 9, .hidden = {4, 4}, .output_dim = out});
    heads.back().init_xavier(rng);
  }
  MlpTape reused;
  Vec dlogits;
  for (int sample = 0; sample < 6; ++sample) {
    Vec x(9);
    for (double& v : x) v = rng.uniform(-2.0, 2.0);
    for (std::size_t h = 0; h < heads.size(); ++h) {
      SCOPED_TRACE("sample " + std::to_string(sample) + ", head " +
                   std::to_string(h));
      const Mlp& net = heads[h];
      const std::size_t label = static_cast<std::size_t>(sample) %
                                net.config().output_dim;
      MlpTape fresh;
      const Vec fresh_logits = net.forward(x, fresh);
      const auto ce = cross_entropy(fresh_logits, label);
      Vec fresh_grad(net.num_parameters(), 0.0);
      const Vec fresh_dx = net.backward(fresh, ce.dlogits, fresh_grad);

      const Vec& logits = net.forward(x, reused);
      EXPECT_TRUE(same_bits(logits, fresh_logits));
      EXPECT_TRUE(same_bits(logits, net.forward(x)));
      EXPECT_EQ(cross_entropy(logits, label, dlogits), ce.loss);
      EXPECT_TRUE(same_bits(dlogits, ce.dlogits));
      Vec grad(net.num_parameters(), 0.0);
      const Vec& dx = net.backward(reused, dlogits, grad);
      EXPECT_TRUE(same_bits(dx, fresh_dx));
      EXPECT_TRUE(same_bits(grad, fresh_grad));
    }
  }
}

TEST(Mlp, SetParametersFromBlockEqualsVecForm) {
  // A head's slice of a longer theta loads exactly like a Vec copy.
  Rng rng(11);
  Mlp net({.input_dim = 9, .hidden = {4, 4}, .output_dim = 13});
  Vec theta(net.num_parameters() + 7);
  for (double& v : theta) v = rng.uniform(-1.0, 1.0);
  const std::span<const double> block =
      std::span<const double>(theta).subspan(3, net.num_parameters());
  Mlp from_vec({.input_dim = 9, .hidden = {4, 4}, .output_dim = 13});
  from_vec.set_parameters(Vec(block.begin(), block.end()));
  net.set_parameters(block);
  EXPECT_TRUE(same_bits(net.parameters(), from_vec.parameters()));
  EXPECT_THROW(net.set_parameters(block.first(block.size() - 1)), Error);
}

// ---------------------------------------------------------------- softmax

TEST(Softmax, SumsToOneAndOrdersPreserved) {
  const Vec p = softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableForHugeLogits) {
  const Vec p = softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  const Vec q = softmax({-1000.0, 0.0});
  EXPECT_NEAR(q[1], 1.0, 1e-12);
}

TEST(Softmax, LogSoftmaxConsistentWithSoftmax) {
  const Vec logits = {0.3, -1.2, 2.2, 0.0};
  const Vec p = softmax(logits);
  const Vec lp = log_softmax(logits);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-12);
  }
}

TEST(Softmax, ArgmaxAndSampling) {
  EXPECT_EQ(argmax({0.1, 0.9, 0.5}), 1u);
  EXPECT_EQ(argmax({3.0, 3.0}), 0u);  // ties -> first
  Rng rng(7);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[sample_softmax({0.0, 0.0, std::log(8.0)}, rng)];
  }
  // p = (0.1, 0.1, 0.8)
  EXPECT_NEAR(counts[2] / 30000.0, 0.8, 0.02);
}

TEST(Softmax, CrossEntropyLossAndGradient) {
  const Vec logits = {1.0, 2.0, 0.5};
  const auto ce = cross_entropy(logits, 1);
  EXPECT_NEAR(ce.loss, -log_softmax(logits)[1], 1e-12);
  const Vec p = softmax(logits);
  EXPECT_NEAR(ce.dlogits[0], p[0], 1e-12);
  EXPECT_NEAR(ce.dlogits[1], p[1] - 1.0, 1e-12);
  EXPECT_NEAR(ce.dlogits[2], p[2], 1e-12);
  EXPECT_THROW(cross_entropy(logits, 3), Error);
}

TEST(Softmax, EntropyExtremes) {
  EXPECT_NEAR(softmax_entropy({0.0, 0.0, 0.0, 0.0}), std::log(4.0), 1e-12);
  EXPECT_NEAR(softmax_entropy({100.0, 0.0}), 0.0, 1e-6);
}

TEST(Softmax, EntropyGradientMatchesFiniteDifferences) {
  // d/dz_i of H(softmax(z)) = -p_i (log p_i + H): verified numerically.
  const Vec z = {0.4, -0.3, 1.1};
  const Vec p = softmax(z);
  const Vec logp = log_softmax(z);
  const double h = softmax_entropy(z);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < z.size(); ++i) {
    Vec zp = z, zm = z;
    zp[i] += eps;
    zm[i] -= eps;
    const double numeric =
        (softmax_entropy(zp) - softmax_entropy(zm)) / (2 * eps);
    EXPECT_NEAR(numeric, -p[i] * (logp[i] + h), 1e-6);
  }
}

// -------------------------------------------------------------- optimizer

TEST(Optimizer, SgdDescendsQuadratic) {
  // f(x) = x^2, gradient 2x.
  Vec x = {10.0};
  Sgd sgd(1, 0.1);
  for (int i = 0; i < 100; ++i) sgd.step(x, {2.0 * x[0]});
  EXPECT_NEAR(x[0], 0.0, 1e-6);
}

TEST(Optimizer, SgdMomentumAcceleratesDescent) {
  Vec plain = {10.0}, mom = {10.0};
  Sgd s1(1, 0.01, 0.0), s2(1, 0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    s1.step(plain, {2.0 * plain[0]});
    s2.step(mom, {2.0 * mom[0]});
  }
  EXPECT_LT(std::abs(mom[0]), std::abs(plain[0]));
}

TEST(Optimizer, AdamDescendsBadlyScaledQuadratic) {
  // f(x, y) = 1000 x^2 + 0.1 y^2 — Adam's per-parameter scaling shines.
  Vec x = {1.0, 100.0};
  Adam adam(2, 0.5);
  for (int i = 0; i < 400; ++i) {
    adam.step(x, {2000.0 * x[0], 0.2 * x[1]});
  }
  EXPECT_NEAR(x[0], 0.0, 1e-2);
  EXPECT_LT(std::abs(x[1]), 60.0);
}

TEST(Optimizer, AdamResetClearsState) {
  Vec x = {1.0};
  Adam adam(1, 0.1);
  adam.step(x, {1.0});
  const double after_one = x[0];
  adam.reset();
  Vec y = {1.0};
  adam.step(y, {1.0});
  EXPECT_NEAR(y[0], after_one, 1e-12);
}

/// Adam as one scalar loop, in the library's operation order: the
/// oracle the packed step must match bit for bit.
struct ScalarAdam {
  double lr, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  long long t = 0;
  Vec m, v;

  void step(Vec& params, const Vec& grad) {
    ++t;
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
      v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      params[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
};

TEST(Optimizer, AdamStepMatchesTheScalarLoopBitForBit) {
  // Sizes 1-33 cover every lane/tail split; 445 is a PaRMIS theta.
  // Each run feeds one gradient kind from fresh moments: ordinary,
  // signed zeros, denormal, huge (its square overflows v to inf), tiny
  // (its square underflows), and all of them mixed element by element.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(445);
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  Rng rng(0xADA3);
  const auto gradient = [&](int kind, std::size_t i) {
    switch (kind) {
      case 0: return rng.normal(0.0, 1.0);
      case 1: return i % 2 == 0 ? 0.0 : -0.0;
      case 2: return denorm * static_cast<double>(1 + i % 7) *
                     (i % 3 == 0 ? -1.0 : 1.0);
      case 3: return i % 2 == 0 ? huge : -1e300;
      default: return rng.normal(0.0, 1e-160);
    }
  };
  for (const std::size_t n : sizes) {
    for (int kind = 0; kind <= 5; ++kind) {
      Vec packed(n);
      for (double& x : packed) x = rng.normal(0.0, 2.0);
      Vec scalar = packed;
      Adam adam(n, 3e-3);
      ScalarAdam oracle{3e-3, 0.9, 0.999, 1e-8, 0, Vec(n, 0.0), Vec(n, 0.0)};
      for (int step = 0; step < 4; ++step) {
        Vec g(n);
        for (std::size_t i = 0; i < n; ++i) {
          g[i] = gradient(kind == 5 ? static_cast<int>((i + step) % 5) : kind,
                          i);
        }
        adam.step(packed, g);
        oracle.step(scalar, g);
        ASSERT_TRUE(same_bits(packed, scalar))
            << "n=" << n << " kind " << kind << " step " << step;
      }
    }
  }
}

TEST(Optimizer, GradientClipping) {
  Vec g = {3.0, 4.0};  // norm 5
  clip_gradient_norm(g, 1.0);
  EXPECT_NEAR(num::norm2(g), 1.0, 1e-12);
  Vec small = {0.1, 0.1};
  const Vec saved = small;
  clip_gradient_norm(small, 10.0);
  EXPECT_EQ(small, saved);
  EXPECT_THROW(clip_gradient_norm(g, 0.0), Error);
}

TEST(Optimizer, ValidatesHyperparameters) {
  EXPECT_THROW(Sgd(1, -0.1), Error);
  EXPECT_THROW(Sgd(1, 0.1, 1.5), Error);
  EXPECT_THROW(Adam(1, 0.0), Error);
  Vec x = {0.0};
  Sgd sgd(1, 0.1);
  EXPECT_THROW(sgd.step(x, {1.0, 2.0}), Error);
}

// --------------------------------------------------- end-to-end training

TEST(Training, MlpLearnsXorLikeTask) {
  // Classic non-linearly-separable task: proves backprop + Adam work
  // together through the hidden layers.
  Rng rng(8);
  Mlp net({.input_dim = 2, .hidden = {8, 8}, .output_dim = 2});
  net.init_xavier(rng);
  Vec params = net.parameters();
  Adam adam(net.num_parameters(), 5e-3);

  const std::vector<Vec> inputs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::size_t> labels = {0, 1, 1, 0};

  for (int pass = 0; pass < 1500; ++pass) {
    Vec grad(net.num_parameters(), 0.0);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      MlpTape tape;
      const Vec logits = net.forward(inputs[i], tape);
      const auto ce = cross_entropy(logits, labels[i]);
      net.backward(tape, ce.dlogits, grad);
    }
    adam.step(params, grad);
    net.set_parameters(params);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(argmax(net.forward(inputs[i])), labels[i]) << "case " << i;
  }
}

}  // namespace
}  // namespace parmis::ml
