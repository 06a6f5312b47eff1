// Standard multi-objective test problems (ZDT, DTLZ) with known Pareto
// fronts, for validating NSGA-II and the hypervolume code in tests.
#ifndef PARMIS_TESTS_TEST_PROBLEMS_HPP
#define PARMIS_TESTS_TEST_PROBLEMS_HPP

#include <cmath>
#include <cstddef>
#include <numbers>

#include "numerics/vec.hpp"

namespace parmis::moo {

namespace detail {
inline double zdt_g(const num::Vec& x) {
  double s = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) s += x[i];
  return 1.0 + 9.0 * s / static_cast<double>(x.size() - 1);
}
}  // namespace detail

/// ZDT1: convex Pareto front f2 = 1 - sqrt(f1), x in [0,1]^n, n >= 2.
inline num::Vec zdt1(const num::Vec& x) {
  const double g = detail::zdt_g(x);
  return {x[0], g * (1.0 - std::sqrt(x[0] / g))};
}

/// ZDT2: concave Pareto front f2 = 1 - f1^2 — the canonical example of a
/// front that linear scalarization cannot cover (paper Sec. III cites
/// this weakness of the RL/IL baselines).
inline num::Vec zdt2(const num::Vec& x) {
  const double g = detail::zdt_g(x);
  return {x[0], g * (1.0 - (x[0] / g) * (x[0] / g))};
}

/// DTLZ2 with k >= 2 objectives over x.size() >= k variables: spherical
/// front sum(f_i^2) = 1.
inline num::Vec dtlz2(const num::Vec& x, std::size_t k) {
  double g = 0.0;
  for (std::size_t i = k - 1; i < x.size(); ++i) {
    g += (x[i] - 0.5) * (x[i] - 0.5);
  }
  num::Vec f(k, 1.0 + g);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j + i < k - 1; ++j) {
      f[i] *= std::cos(0.5 * std::numbers::pi * x[j]);
    }
    if (i > 0) f[i] *= std::sin(0.5 * std::numbers::pi * x[k - 1 - i]);
  }
  return f;
}

/// True-front value f2(f1) for ZDT1 / ZDT2.
inline double zdt1_front(double f1) { return 1.0 - std::sqrt(f1); }
inline double zdt2_front(double f1) { return 1.0 - f1 * f1; }

}  // namespace parmis::moo

#endif  // PARMIS_TESTS_TEST_PROBLEMS_HPP
