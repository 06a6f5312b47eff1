// Small dense-vector helpers used throughout the GP / MOO / ML code.
//
// PaRMIS's numerical core is intentionally dependency-free: vectors are
// std::vector<double> and these free functions provide the handful of
// BLAS-1 style operations the library needs.  All functions check
// dimension agreement with parmis::require.
#ifndef PARMIS_NUMERICS_VEC_HPP
#define PARMIS_NUMERICS_VEC_HPP

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace parmis::num {

using Vec = std::vector<double>;

/// Dot product.  Requires a.size() == b.size().
double dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double norm2(const Vec& a);

/// Squared Euclidean distance between two equally sized vectors.
double squared_distance(const Vec& a, const Vec& b);

/// Pointer form of squared_distance over `n`-element raw buffers — the
/// allocation-free hot path for batched kernel evaluation.  Produces the
/// same operation sequence (and therefore bit-identical results) as the
/// Vec overload.  Defined inline: this runs once per (training point,
/// candidate) pair in every kernel cross-covariance sweep, and the call
/// overhead of an out-of-line definition is measurable there.  The
/// accumulation is strictly i-ascending — keep it that way; the batched
/// GP bit-equivalence contract (src/gp/gp.hpp) depends on it.
inline double squared_distance(const double* a, const double* b,
                               std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// Element-wise a + b.
Vec add(const Vec& a, const Vec& b);

/// Element-wise a - b.
Vec sub(const Vec& a, const Vec& b);

/// Scalar multiple s * a.
Vec scale(const Vec& a, double s);

/// In-place y += alpha * x.  Requires x.size() == y.size().
void axpy(double alpha, const Vec& x, Vec& y);

/// Arithmetic mean; requires a non-empty vector.
double mean(const Vec& a);

/// Unbiased sample variance (n-1 denominator); 0 for size < 2.
double variance(const Vec& a);

/// Sample standard deviation.
double stddev(const Vec& a);

}  // namespace parmis::num

#endif  // PARMIS_NUMERICS_VEC_HPP
