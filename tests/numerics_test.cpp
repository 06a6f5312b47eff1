// Unit + property tests for src/numerics: linear algebra, Cholesky,
// Gaussian distribution functions, truncated entropy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "numerics/batch.hpp"
#include "numerics/cholesky.hpp"
#include "numerics/distributions.hpp"
#include "numerics/matrix.hpp"
#include "numerics/vec.hpp"

namespace parmis::num {
namespace {

// ------------------------------------------------------------------- vec

TEST(Vec, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_THROW(dot({1}, {1, 2}), Error);
}

TEST(Vec, SquaredDistance) {
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(squared_distance({1, 1}, {1, 1}), 0.0);
}

TEST(Vec, AddSubScaleAxpy) {
  const Vec a = {1, 2}, b = {3, 5};
  EXPECT_EQ(add(a, b), (Vec{4, 7}));
  EXPECT_EQ(sub(b, a), (Vec{2, 3}));
  EXPECT_EQ(scale(a, 2.0), (Vec{2, 4}));
  Vec y = {1, 1};
  axpy(2.0, a, y);
  EXPECT_EQ(y, (Vec{3, 5}));
}

TEST(Vec, MeanVarianceStddev) {
  const Vec v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(variance({1.0}), 0.0);
  EXPECT_THROW(mean({}), Error);
}

// ---------------------------------------------------------------- matrix

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 9.0);
  EXPECT_THROW(m.at(2, 0), Error);
}

TEST(Matrix, FromRowsValidatesShape) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), Error);
  EXPECT_THROW(Matrix::from_rows({}), Error);
}

TEST(Matrix, AddDiagonal) {
  Matrix m(3, 3, 1.0);
  m.add_diagonal(2.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
}

TEST(Matrix, MatvecAndTransposedMatvec) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.matvec({1, 1}), (Vec{3, 7, 11}));
  EXPECT_EQ(m.matvec_transposed({1, 1, 1}), (Vec{9, 12}));
  EXPECT_THROW(m.matvec({1, 2, 3}), Error);
}

TEST(Matrix, MatmulAgreesWithHandComputation) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m(4, 7);
  for (auto& v : m.data()) v = rng.normal();
  const Matrix mt = m.transposed();
  EXPECT_EQ(mt.rows(), 7u);
  const Matrix mtt = mt.transposed();
  EXPECT_EQ(mtt.data(), m.data());
}

// -------------------------------------------------------------- cholesky

TEST(Cholesky, FactorizesKnownSpdMatrix) {
  // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]]
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
  const Cholesky chol(a);
  EXPECT_NEAR(chol.lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(chol.lower()(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(chol.jitter_used(), 0.0);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
  const Vec x_true = {1.0, -2.0};
  const Vec b = a.matvec(x_true);
  const Vec x = Cholesky(a).solve(b);
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(Cholesky, LogDetMatchesDirectComputation) {
  const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
  // det = 12 - 4 = 8
  EXPECT_NEAR(Cholesky(a).log_det(), std::log(8.0), 1e-12);
}

TEST(Cholesky, RandomSpdReconstruction) {
  Rng rng(2);
  const std::size_t n = 12;
  Matrix b(n, n);
  for (auto& v : b.data()) v = rng.normal();
  Matrix a = b.matmul(b.transposed());
  a.add_diagonal(0.5);
  const Cholesky chol(a);
  const Matrix recon = chol.lower().matmul(chol.lower().transposed());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(Cholesky, JitterRescuesSingularMatrix) {
  // Rank-1 matrix: requires jitter.
  const Matrix a = Matrix::from_rows({{1, 1}, {1, 1}});
  const Cholesky chol(a);
  EXPECT_GT(chol.jitter_used(), 0.0);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, -5}});
  EXPECT_THROW(Cholesky(a, 1e-10, 3), Error);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(2, 3)), Error);
}

// --------------------------------------------------------- distributions

TEST(Distributions, PdfKnownValues) {
  EXPECT_NEAR(norm_pdf(0.0), 1.0 / std::sqrt(2.0 * std::numbers::pi), 1e-15);
  EXPECT_NEAR(norm_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(norm_pdf(-1.0), norm_pdf(1.0), 1e-15);
}

TEST(Distributions, CdfKnownValues) {
  EXPECT_NEAR(norm_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(norm_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(norm_cdf(-1.0) + norm_cdf(1.0), 1.0, 1e-12);
}

TEST(Distributions, LogCdfMatchesDirectInSafeRange) {
  for (double x = -7.5; x <= 8.0; x += 0.25) {
    EXPECT_NEAR(log_norm_cdf(x), std::log(norm_cdf(x)), 1e-10) << "x=" << x;
  }
}

TEST(Distributions, LogCdfDeepTailIsFiniteAndMonotone) {
  double prev = log_norm_cdf(-200.0);
  EXPECT_TRUE(std::isfinite(prev));
  for (double x = -150.0; x <= -10.0; x += 10.0) {
    const double cur = log_norm_cdf(x);
    EXPECT_TRUE(std::isfinite(cur));
    EXPECT_GT(cur, prev) << "x=" << x;
    prev = cur;
  }
}

TEST(Distributions, LogCdfTailBranchAgreesWithErfc) {
  // The implementation switches to the asymptotic series at x = -12;
  // erfc is still accurate down to x ~ -37, so both evaluations of the
  // SAME point must agree where they overlap.
  for (double x = -20.0; x <= -12.0; x += 0.5) {
    const double direct = std::log(norm_cdf(x));  // erfc branch, by hand
    EXPECT_NEAR(log_norm_cdf(x) / direct, 1.0, 1e-9) << "x=" << x;
  }
}

TEST(Distributions, InverseMillsRatioLimits) {
  // For x >> 0: phi/Phi -> phi(x) (tiny). For x << 0: -x + O(1/x), i.e.
  // phi/Phi(-50) = 50.02 (the 1/x correction), not exactly 50.
  EXPECT_NEAR(inverse_mills_ratio(8.0), norm_pdf(8.0), 1e-15);
  EXPECT_NEAR(inverse_mills_ratio(-50.0), 50.0 + 1.0 / 50.0, 1e-3);
  EXPECT_NEAR(inverse_mills_ratio(0.0),
              norm_pdf(0.0) / 0.5, 1e-12);
}

TEST(Distributions, GaussianEntropyClosedForm) {
  // H = 0.5 ln(2 pi e sigma^2)
  EXPECT_NEAR(gaussian_entropy(1.0),
              0.5 * std::log(2.0 * std::numbers::pi * std::numbers::e),
              1e-12);
  EXPECT_NEAR(gaussian_entropy(2.0) - gaussian_entropy(1.0), std::log(2.0),
              1e-12);
  EXPECT_THROW(gaussian_entropy(0.0), Error);
}

/// Numerically integrates the upper-truncated Gaussian entropy for
/// comparison with the closed form (paper Eq. 8 building block).
double truncated_entropy_numeric(double mu, double sigma, double upper) {
  const double z = norm_cdf((upper - mu) / sigma);
  const double lo = mu - 12.0 * sigma;
  const int n = 400000;
  const double h = (upper - lo) / n;
  double entropy = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = lo + (i + 0.5) * h;
    const double p = norm_pdf((x - mu) / sigma) / (sigma * z);
    if (p > 1e-300) entropy -= p * std::log(p) * h;
  }
  return entropy;
}

TEST(Distributions, TruncatedEntropyMatchesNumericIntegration) {
  struct Case {
    double mu, sigma, upper;
  };
  for (const auto& c : {Case{0.0, 1.0, 0.0}, Case{0.0, 1.0, 2.0},
                        Case{1.0, 0.5, 0.8}, Case{-2.0, 3.0, -1.0}}) {
    EXPECT_NEAR(upper_truncated_gaussian_entropy(c.mu, c.sigma, c.upper),
                truncated_entropy_numeric(c.mu, c.sigma, c.upper), 2e-4)
        << "mu=" << c.mu << " sigma=" << c.sigma << " upper=" << c.upper;
  }
}

TEST(Distributions, TruncationNeverIncreasesEntropy) {
  for (double upper = -3.0; upper <= 4.0; upper += 0.5) {
    EXPECT_LE(upper_truncated_gaussian_entropy(0.0, 1.0, upper),
              gaussian_entropy(1.0) + 1e-12);
  }
}

TEST(Distributions, EntropyReductionTermNonNegative) {
  for (double g = -40.0; g <= 40.0; g += 0.5) {
    const double v = entropy_reduction_term(g);
    EXPECT_GE(v, 0.0) << "gamma=" << g;
    EXPECT_TRUE(std::isfinite(v)) << "gamma=" << g;
  }
}

TEST(Distributions, EntropyReductionTermMonotoneDecreasingInGamma) {
  // Less headroom below the truncation point => more entropy removed.
  double prev = entropy_reduction_term(-30.0);
  for (double g = -29.0; g <= 30.0; g += 1.0) {
    const double cur = entropy_reduction_term(g);
    EXPECT_LE(cur, prev + 1e-9) << "gamma=" << g;
    prev = cur;
  }
}

TEST(Distributions, EntropyReductionDeepTailMatchesSafeBranch) {
  // In the overlap region both the direct evaluation (erfc still exact)
  // and the asymptotic branch must agree at the SAME point.
  for (double g = -20.0; g <= -12.0; g += 0.5) {
    const double phi_over_cdf = norm_pdf(g) / norm_cdf(g);
    const double direct = 0.5 * g * phi_over_cdf - std::log(norm_cdf(g));
    EXPECT_NEAR(entropy_reduction_term(g) / direct, 1.0, 1e-8) << g;
  }
}

TEST(Distributions, EntropyReductionVanishesForLargeGamma) {
  EXPECT_LT(entropy_reduction_term(8.0), 1e-12);
}

TEST(Distributions, EntropyIdentityLinksReductionAndTruncation) {
  // H_trunc = H_gauss - reduction, by construction and by math.
  const double mu = 0.3, sigma = 1.7, upper = 0.9;
  const double gamma = (upper - mu) / sigma;
  EXPECT_NEAR(upper_truncated_gaussian_entropy(mu, sigma, upper),
              gaussian_entropy(sigma) - entropy_reduction_term(gamma), 1e-12);
}

// ----------------------------------------------------------------- batch
//
// Property tests for the blocked primitives behind GpRegressor::
// predict_many.  The contract is BITWISE equality with the scalar
// reference implementations — not closeness — so every comparison here
// goes through memcmp on the raw double storage.  NaNs compare equal
// under memcmp iff the bit patterns match, which is exactly what the
// contract promises for hostile inputs.

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(double));
  std::memcpy(&ub, &b, sizeof(double));
  return ua == ub;
}

// The scalar reference: naive i-j-k triple loop, k strictly ascending,
// accumulating with the same `acc += a*b` expression shape.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.uniform(-3.0, 3.0);
  return m;
}

TEST(Batch, MatmulBlockedMatchesNaiveAcrossBlockEdges) {
  // Sizes straddling every block-edge remainder class: well below one
  // tile, exactly one tile, and one past it (plus interior odd sizes).
  const std::size_t sizes[] = {1, 2, 3, 7, 31, 32, 33, 63, 64, 65};
  Rng rng(2024);
  for (std::size_t m : sizes) {
    for (std::size_t k : {std::size_t{1}, std::size_t{17}, std::size_t{64},
                          std::size_t{65}}) {
      const std::size_t n = sizes[(m + k) % std::size(sizes)];
      const Matrix a = random_matrix(m, k, rng);
      const Matrix b = random_matrix(k, n, rng);
      EXPECT_TRUE(bitwise_equal(matmul_blocked(a, b), naive_matmul(a, b)))
          << "matmul diverged at m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(Batch, MatmulBlockedFullSweepOneDimension) {
  // Every remainder 1..65 in the inner (k) dimension — the dimension
  // whose blocking could most plausibly reorder an accumulation.
  Rng rng(99);
  for (std::size_t k = 1; k <= 65; ++k) {
    const Matrix a = random_matrix(5, k, rng);
    const Matrix b = random_matrix(k, 9, rng);
    EXPECT_TRUE(bitwise_equal(matmul_blocked(a, b), naive_matmul(a, b)))
        << "matmul diverged at k=" << k;
  }
}

TEST(Batch, MatmulBlockedHostileValues) {
  // Denormals, huge magnitudes that overflow to inf in the products,
  // explicit zeros against infinities (0 * inf = NaN must propagate —
  // a zero-skip "optimization" would silently change results).
  const double hostile[] = {5e-324,
                            1e-310,
                            -1e-310,
                            1e153,
                            -1e153,
                            0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            1.0,
                            -2.5};
  const std::size_t n = 9;  // not a multiple of any block edge
  Matrix a(n, n), b(n, n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = hostile[(i * n + j) % std::size(hostile)];
      b(i, j) = hostile[(i * 3 + j * 5) % std::size(hostile)];
    }
  }
  const Matrix blocked = matmul_blocked(a, b);
  const Matrix naive = naive_matmul(a, b);
  // Sanity: the input really exercises the NaN path.
  bool saw_nan = false;
  for (double v : naive.data()) saw_nan = saw_nan || std::isnan(v);
  EXPECT_TRUE(saw_nan);
  EXPECT_TRUE(bitwise_equal(blocked, naive));
}

TEST(Batch, MatmulBlockedRejectsMismatchedShapes) {
  EXPECT_THROW(matmul_blocked(Matrix(2, 3), Matrix(4, 2)), Error);
}

// SPD matrix for Cholesky-backed solve tests: A A^T + n I.
Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t c = 0; c < n; ++c) s += a(i, c) * a(j, c);
      k(i, j) = s;
    }
    k(i, i) += double(n);
  }
  return k;
}

TEST(Batch, SolveLowerManyMatchesPerColumnSolve) {
  Rng rng(11);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{17},
                        std::size_t{33}, std::size_t{64}, std::size_t{65}}) {
    const Cholesky chol(random_spd(n, rng));
    for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{63},
                          std::size_t{64}, std::size_t{65}}) {
      const Matrix rhs = random_matrix(n, m, rng);
      const Matrix y = chol.solve_lower_many(rhs);
      ASSERT_EQ(y.rows(), n);
      ASSERT_EQ(y.cols(), m);
      for (std::size_t c = 0; c < m; ++c) {
        Vec col(n);
        for (std::size_t r = 0; r < n; ++r) col[r] = rhs(r, c);
        const Vec ref = chol.solve_lower(col);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_TRUE(same_bits(y(r, c), ref[r]))
              << "solve diverged at n=" << n << " m=" << m << " row=" << r
              << " col=" << c;
        }
      }
    }
  }
}

TEST(Batch, SolveLowerManyHostileRhs) {
  // Denormal / huge / infinite right-hand sides must flow through the
  // forward substitution with exactly the scalar op sequence.
  Rng rng(5);
  const std::size_t n = 12;
  const Cholesky chol(random_spd(n, rng));
  const double hostile[] = {5e-324, -1e-310, 1e160, -1e160,
                            std::numeric_limits<double>::infinity(), 0.0};
  Matrix rhs(n, 7);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < 7; ++c)
      rhs(r, c) = hostile[(r * 7 + c) % std::size(hostile)];
  const Matrix y = chol.solve_lower_many(rhs);
  for (std::size_t c = 0; c < 7; ++c) {
    Vec col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = rhs(r, c);
    const Vec ref = chol.solve_lower(col);
    // The one-column form too: a single GP query takes that path.
    Matrix one(n, 1);
    for (std::size_t r = 0; r < n; ++r) one(r, 0) = col[r];
    chol.solve_lower_many_inplace(one);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_TRUE(same_bits(y(r, c), ref[r]));
      EXPECT_TRUE(same_bits(one(r, 0), ref[r]));
    }
  }
}

TEST(Batch, SolveLowerManyInplaceMatchesReturningForm) {
  Rng rng(21);
  const std::size_t n = 20;
  const Cholesky chol(random_spd(n, rng));
  const Matrix rhs = random_matrix(n, 40, rng);
  const Matrix returned = chol.solve_lower_many(rhs);
  Matrix inplace = rhs;
  chol.solve_lower_many_inplace(inplace);
  EXPECT_TRUE(bitwise_equal(returned, inplace));
}

TEST(Batch, SolveLowerManyRejectsBadShapes) {
  Rng rng(3);
  const Cholesky chol(random_spd(4, rng));
  EXPECT_THROW(chol.solve_lower_many(Matrix(5, 2)), Error);
  EXPECT_THROW(solve_lower_many(Matrix(3, 4), Matrix(3, 2)), Error);
}

TEST(Batch, AlignedBufferAlignmentAndZeroing) {
  AlignedBuffer buf(129);  // odd size: alignment must still hold
  ASSERT_EQ(buf.size(), 129u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0.0) << "not zero-initialized at " << i;
  }
  const AlignedBuffer empty(0);
  EXPECT_EQ(empty.size(), 0u);
}

// ------------------------------------------------------------- row views

TEST(Matrix, RowViewAliasesStorageWithoutCopy) {
  Matrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = double(r * 4 + c);

  // The view points into the matrix's own storage — no copy.
  std::span<const double> v1 = std::as_const(m).row_view(1);
  ASSERT_EQ(v1.size(), 4u);
  EXPECT_EQ(v1.data(), &m(1, 0));

  // Writes to the matrix are visible through a live view (aliasing),
  // and writes through the mutable view land in the matrix.
  m(1, 2) = 99.0;
  EXPECT_EQ(v1[2], 99.0);
  std::span<double> v2 = m.row_view(2);
  v2[3] = -7.0;
  EXPECT_EQ(m(2, 3), -7.0);

  // row() is a copy and must NOT alias.
  Vec copy = m.row(0);
  m(0, 0) = 1234.0;
  EXPECT_EQ(copy[0], 0.0);

  EXPECT_THROW(m.row_view(3), Error);
  EXPECT_THROW(std::as_const(m).row_view(3), Error);
}

}  // namespace
}  // namespace parmis::num
