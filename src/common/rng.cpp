#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace parmis {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform(double lo, double hi) {
  require(lo < hi, "uniform(lo, hi) requires lo < hi");
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  require(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::size_t>(hi - lo) + 1;
  return lo + static_cast<int>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  // Box-Muller; u1 is bounded away from zero so log() is finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) {
  require(sd >= 0.0, "normal() requires sd >= 0");
  return mean + sd * normal();
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  require(!weights.empty(), "categorical() requires at least one weight");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "categorical() weights must be non-negative");
    total += w;
  }
  require(total > 0.0, "categorical() requires a positive total weight");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

Rng Rng::split() { return Rng(next_u64() ^ 0x5851F42D4C957F2DULL); }

}  // namespace parmis
