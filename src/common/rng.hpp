// Deterministic, seedable random number generation.
//
// All stochastic components in PaRMIS (GP function sampling, NSGA-II
// operators, simulator sensor noise, RL exploration, ...) draw from an
// explicitly seeded Rng so that every experiment in bench/ is exactly
// reproducible.  The generator is xoshiro256++, seeded through splitmix64
// as recommended by its authors; it is small, fast, and has no global
// state (unlike std::rand) and no implementation-defined distribution
// behaviour (unlike std::normal_distribution, whose output differs across
// standard libraries).  The per-draw primitives are defined inline: NSGA-II
// makes tens of millions of bernoulli() calls per PaRMIS cell.
#ifndef PARMIS_COMMON_RNG_HPP
#define PARMIS_COMMON_RNG_HPP

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace parmis {

/// splitmix64 step: used for seeding and for cheap stateless hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ generator with explicit seeding and value semantics.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0xC0FFEE'5EED'1234ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.
  std::size_t uniform_index(std::size_t n) {
    require(n > 0, "uniform_index requires n > 0");
    // Rejection-free multiply-shift mapping; bias is negligible for
    // n << 2^64.
    return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal variate (Box-Muller with cached spare).
  double normal();

  /// Normal variate with the given mean and standard deviation (sd >= 0).
  double normal(double mean, double sd);

  /// True with probability p (clamped to [0,1]).  p <= 0 and p >= 1
  /// consume no draw.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index-addressable container.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  /// Derives an independent child generator (for parallel-safe substreams).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace parmis

#endif  // PARMIS_COMMON_RNG_HPP
