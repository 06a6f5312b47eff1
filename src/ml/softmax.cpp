#include "ml/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace parmis::ml {

Vec softmax(const Vec& logits) {
  require(!logits.empty(), "softmax: empty logits");
  const double mx = *std::max_element(logits.begin(), logits.end());
  Vec out(logits.size());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - mx);
    total += out[i];
  }
  for (double& v : out) v /= total;
  return out;
}

Vec log_softmax(const Vec& logits) {
  require(!logits.empty(), "log_softmax: empty logits");
  const double mx = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double v : logits) total += std::exp(v - mx);
  const double log_z = mx + std::log(total);
  Vec out(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
  return out;
}

std::size_t argmax(const Vec& values) {
  require(!values.empty(), "argmax: empty vector");
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

std::size_t sample_softmax(const Vec& logits, Rng& rng) {
  return rng.categorical(softmax(logits));
}

CrossEntropyResult cross_entropy(const Vec& logits, std::size_t label) {
  require(label < logits.size(), "cross_entropy: label out of range");
  CrossEntropyResult out;
  const Vec logp = log_softmax(logits);
  out.loss = -logp[label];
  out.dlogits.resize(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out.dlogits[i] = std::exp(logp[i]);
  }
  out.dlogits[label] -= 1.0;
  return out;
}

double softmax_entropy(const Vec& logits) {
  const Vec logp = log_softmax(logits);
  double h = 0.0;
  for (double lp : logp) h -= std::exp(lp) * lp;
  return h;
}

}  // namespace parmis::ml
