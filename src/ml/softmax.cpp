#include "ml/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace parmis::ml {

Vec softmax(const Vec& logits) {
  Vec out;
  softmax(logits, out);
  return out;
}

void softmax(const Vec& logits, Vec& out) {
  require(!logits.empty(), "softmax: empty logits");
  const double mx = *std::max_element(logits.begin(), logits.end());
  out.resize(logits.size());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - mx);
    total += out[i];
  }
  for (double& v : out) v /= total;
}

Vec log_softmax(const Vec& logits) {
  Vec out;
  log_softmax(logits, out);
  return out;
}

void log_softmax(const Vec& logits, Vec& out) {
  require(!logits.empty(), "log_softmax: empty logits");
  const double mx = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double v : logits) total += std::exp(v - mx);
  const double log_z = mx + std::log(total);
  out.resize(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_z;
}

std::size_t argmax(const Vec& values) {
  require(!values.empty(), "argmax: empty vector");
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

std::size_t sample_softmax(const Vec& logits, Rng& rng) {
  Vec probs;
  return sample_softmax(logits, rng, probs);
}

std::size_t sample_softmax(const Vec& logits, Rng& rng, Vec& probs) {
  softmax(logits, probs);
  return rng.categorical(probs);
}

CrossEntropyResult cross_entropy(const Vec& logits, std::size_t label) {
  CrossEntropyResult out;
  out.loss = cross_entropy(logits, label, out.dlogits);
  return out;
}

double cross_entropy(const Vec& logits, std::size_t label, Vec& dlogits) {
  require(label < logits.size(), "cross_entropy: label out of range");
  // log_softmax into `dlogits`, then exponentiated in place: the
  // softmax - onehot gradient without a second buffer.
  log_softmax(logits, dlogits);
  const double loss = -dlogits[label];
  for (double& v : dlogits) v = std::exp(v);
  dlogits[label] -= 1.0;
  return loss;
}

double softmax_entropy(const Vec& logits) {
  const Vec logp = log_softmax(logits);
  double h = 0.0;
  for (double lp : logp) h -= std::exp(lp) * lp;
  return h;
}

}  // namespace parmis::ml
