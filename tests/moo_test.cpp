// Unit + property tests for src/moo: dominance, non-dominated sorting,
// crowding, hypervolume (exact + Monte Carlo), NSGA-II on ZDT problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/rff.hpp"
#include "moo/hypervolume.hpp"
#include "moo/indicators.hpp"
#include "moo/nsga2.hpp"
#include "moo/pareto.hpp"
#include "test_problems.hpp"

namespace parmis::moo {
namespace {

// ------------------------------------------------------------- dominance

TEST(Dominance, BasicCases) {
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {2, 2}));  // equal: no strict improvement
  EXPECT_FALSE(dominates({1, 3}, {2, 2}));  // incomparable
  EXPECT_THROW(dominates({1}, {1, 2}), Error);
}

TEST(Dominance, AntisymmetryProperty) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    Vec a = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    Vec b = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    EXPECT_FALSE(dominates(a, b) && dominates(b, a));
  }
}

TEST(Dominance, TransitivityProperty) {
  Rng rng(2);
  int checked = 0;
  for (int trial = 0; trial < 3000 && checked < 100; ++trial) {
    Vec a = {rng.uniform(0, 1), rng.uniform(0, 1)};
    Vec b = {a[0] + rng.uniform(0, 0.5), a[1] + rng.uniform(0, 0.5)};
    Vec c = {b[0] + rng.uniform(0, 0.5), b[1] + rng.uniform(0, 0.5)};
    if (dominates(a, b) && dominates(b, c)) {
      EXPECT_TRUE(dominates(a, c));
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(Dominance, Incomparable) {
  EXPECT_TRUE(incomparable({1, 3}, {3, 1}));
  EXPECT_FALSE(incomparable({1, 1}, {2, 2}));
  EXPECT_FALSE(incomparable({1, 1}, {1, 1}));
}

// ------------------------------------------------------------ pareto ops

TEST(Pareto, NonDominatedIndicesKnownSet) {
  const std::vector<Vec> pts = {{1, 5}, {2, 2}, {5, 1}, {4, 4}, {3, 3}};
  const auto idx = non_dominated_indices(pts);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Pareto, DuplicatesKeepFirstOccurrence) {
  const std::vector<Vec> pts = {{1, 2}, {1, 2}, {0, 3}};
  const auto idx = non_dominated_indices(pts);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 2}));
}

TEST(Pareto, FrontMembersAreMutuallyIncomparable) {
  Rng rng(3);
  std::vector<Vec> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const auto front = pareto_front(pts);
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = i + 1; j < front.size(); ++j) {
      EXPECT_FALSE(dominates(front[i], front[j]));
      EXPECT_FALSE(dominates(front[j], front[i]));
    }
  }
  // Every non-front point is dominated by some front point.
  for (const auto& p : pts) {
    bool in_front = false;
    for (const auto& f : front) in_front |= (f == p);
    if (in_front) continue;
    bool dominated = false;
    for (const auto& f : front) dominated |= dominates(f, p);
    EXPECT_TRUE(dominated);
  }
}

TEST(Pareto, FastNonDominatedSortLayersAreConsistent) {
  const std::vector<Vec> pts = {{1, 1}, {2, 2}, {3, 3}, {1, 4}, {4, 1}};
  const auto fronts = fast_non_dominated_sort(pts);
  ASSERT_GE(fronts.size(), 2u);
  // Layer 0 = {0}; {1,4} and {4,1} are incomparable with {1,1}? No:
  // (1,1) dominates (1,4)? 1<=1, 1<4 -> yes.  So layer 0 == {(1,1)}.
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
  // Every point in layer i+1 is dominated by someone in layer i.
  for (std::size_t layer = 1; layer < fronts.size(); ++layer) {
    for (std::size_t q : fronts[layer]) {
      bool dominated = false;
      for (std::size_t p : fronts[layer - 1]) {
        dominated |= dominates(pts[p], pts[q]);
      }
      EXPECT_TRUE(dominated);
    }
  }
  // Layers partition all indices.
  std::size_t total = 0;
  for (const auto& f : fronts) total += f.size();
  EXPECT_EQ(total, pts.size());
}

TEST(Pareto, CrowdingDistanceBoundariesInfinite) {
  const std::vector<Vec> pts = {{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}};
  std::vector<std::size_t> members = {0, 1, 2, 3, 4};
  const auto cd = crowding_distance(pts, members);
  EXPECT_TRUE(std::isinf(cd[0]));
  EXPECT_TRUE(std::isinf(cd[4]));
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(std::isfinite(cd[i]));
    EXPECT_GT(cd[i], 0.0);
  }
}

TEST(Pareto, CrowdingPrefersIsolatedPoints) {
  // Point 2 is crowded; point 1 is isolated.
  const std::vector<Vec> pts = {{0, 10}, {3, 6}, {8.9, 1.2}, {9, 1}, {10, 0}};
  std::vector<std::size_t> members = {0, 1, 2, 3, 4};
  const auto cd = crowding_distance(pts, members);
  EXPECT_GT(cd[1], cd[2]);
}

// The parent implementation of fast_non_dominated_sort and
// crowding_distance, kept verbatim as the oracle for the flat
// rank-and-crowding core: same fronts, same member order, same
// crowding bits.
namespace oracle {

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Vec>& points) {
  const std::size_t n = points.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;

  std::vector<std::size_t> current;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(points[p], points[q])) {
        dominated_by[p].push_back(q);
      } else if (dominates(points[q], points[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) current.push_back(p);
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<std::size_t> next;
    for (std::size_t p : current) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

std::vector<double> crowding_distance(
    const std::vector<Vec>& points, const std::vector<std::size_t>& members) {
  const std::size_t m = members.size();
  std::vector<double> dist(m, 0.0);
  if (m == 0) return dist;
  const std::size_t k = points[members[0]].size();
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (m <= 2) {
    std::fill(dist.begin(), dist.end(), inf);
    return dist;
  }
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (std::size_t obj = 0; obj < k; ++obj) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return points[members[a]][obj] < points[members[b]][obj];
    });
    const double lo = points[members[order.front()]][obj];
    const double hi = points[members[order.back()]][obj];
    dist[order.front()] = inf;
    dist[order.back()] = inf;
    const double span = hi - lo;
    if (span <= 0.0) continue;  // degenerate objective: no interior credit
    for (std::size_t i = 1; i + 1 < m; ++i) {
      const double below = points[members[order[i - 1]]][obj];
      const double above = points[members[order[i + 1]]][obj];
      dist[order[i]] += (above - below) / span;
    }
  }
  return dist;
}

}  // namespace oracle

/// n seeded points in k objectives with the hostile features the core
/// must reproduce exactly: coarse ties in objective 0, exact duplicate
/// rows, and (when `special`) +inf, -inf and NaN coordinates.
std::vector<Vec> hostile_points(std::size_t n, std::size_t k, bool special,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> pts;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.15)) {
      pts.push_back(pts[rng.uniform_index(i)]);  // duplicate row
      continue;
    }
    Vec p(k);
    for (auto& v : p) v = rng.uniform(-1.0, 1.0);
    p[0] = std::round(p[0] * 4.0) / 4.0;  // ties in one objective
    if (special && rng.bernoulli(0.2)) {
      constexpr double inf = std::numeric_limits<double>::infinity();
      const double specials[] = {inf, -inf,
                                 std::numeric_limits<double>::quiet_NaN()};
      p[rng.uniform_index(k)] = specials[rng.uniform_index(3)];
    }
    pts.push_back(std::move(p));
  }
  return pts;
}

void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "i=" << i << " " << a[i] << " vs " << b[i];
  }
}

/// The oracle's crowding distances as the core writes them: the sign of
/// a NaN sum depends on which operand the compiler puts first (x86
/// keeps the first operand's NaN, and -O0 orders the oracle's sum and
/// the core's differently), so the core writes every NaN distance as
/// the one canonical quiet NaN.  Every other entry stays the oracle's.
std::vector<double> with_canonical_nans(std::vector<double> distances) {
  for (double& d : distances) {
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  }
  return distances;
}

TEST(Pareto, FlatCoreMatchesOracleFrontsAndCrowdingBits) {
  std::uint64_t seed = 1;
  for (std::size_t k : {1, 2, 3}) {
    for (std::size_t n : {1, 2, 3, 64, 200}) {
      for (bool special : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " n=" << n
                                          << " special=" << special);
        const std::vector<Vec> pts = hostile_points(n, k, special, seed++);
        const auto fronts = oracle::fast_non_dominated_sort(pts);
        EXPECT_EQ(fast_non_dominated_sort(pts), fronts);

        // The core as NSGA-II drives it: flat rows, reused scratch.
        std::vector<double> flat;
        for (const Vec& p : pts) flat.insert(flat.end(), p.begin(), p.end());
        RankScratch scratch;
        std::vector<std::size_t> rank(n);
        std::vector<double> crowding(n);
        for (int pass = 0; pass < 2; ++pass) {
          rank_and_crowd(flat.data(), n, k, scratch, rank.data(),
                         crowding.data());
        }
        for (std::size_t f = 0; f < fronts.size(); ++f) {
          const std::vector<double> want =
              with_canonical_nans(oracle::crowding_distance(pts, fronts[f]));
          expect_same_bits(crowding_distance(pts, fronts[f]), want);
          std::vector<double> got;
          for (std::size_t i : fronts[f]) {
            EXPECT_EQ(rank[i], f);
            got.push_back(crowding[i]);
          }
          expect_same_bits(got, want);
        }

        // Arbitrary member subsets, as the Pareto archive passes them.
        Rng pick(seed);
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < n; ++i) {
          if (pick.bernoulli(0.6)) members.push_back(i);
        }
        pick.shuffle(members);
        expect_same_bits(
            crowding_distance(pts, members),
            with_canonical_nans(oracle::crowding_distance(pts, members)));
      }
    }
  }
  EXPECT_TRUE(fast_non_dominated_sort({}).empty());
  EXPECT_TRUE(crowding_distance({{1.0}}, {}).empty());
}

TEST(Pareto, ComponentwiseExtremes) {
  const std::vector<Vec> pts = {{1, 5}, {4, 2}};
  EXPECT_EQ(componentwise_max(pts), (Vec{4, 5}));
  EXPECT_EQ(componentwise_min(pts), (Vec{1, 2}));
  EXPECT_THROW(componentwise_max({}), Error);
}

// ------------------------------------------------------------ hypervolume

TEST(Hypervolume, SinglePointBox) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 1}}, {3, 3}), 4.0);
}

TEST(Hypervolume, TwoPointStaircase) {
  // Points (1,2) and (2,1), ref (3,3): area = 3 (union of two boxes).
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 2}, {2, 1}}, {3, 3}), 3.0);
}

TEST(Hypervolume, DominatedPointAddsNothing) {
  const double base = hypervolume_2d({{1, 1}}, {4, 4});
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 1}, {2, 2}}, {4, 4}), base);
}

TEST(Hypervolume, PointsOutsideReferenceIgnored) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({{5, 5}}, {3, 3}), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 5}}, {3, 3}), 0.0);
}

TEST(Hypervolume, MonotoneUnderNewNonDominatedPoint) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Vec> pts;
    for (int i = 0; i < 10; ++i) {
      pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    }
    const Vec ref = {1.5, 1.5};
    const double before = hypervolume_2d(pts, ref);
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    const double after = hypervolume_2d(pts, ref);
    EXPECT_GE(after, before - 1e-12);
  }
}

TEST(Hypervolume, Wfg3dKnownValue) {
  // Single point (1,1,1), ref (2,2,2): volume 1.
  EXPECT_NEAR(hypervolume_wfg({{1, 1, 1}}, {2, 2, 2}), 1.0, 1e-12);
  // Two incomparable points with known union volume:
  // (0,1,1) and (1,0,0), ref (2,2,2):
  //   vol(box1) = 2*1*1 = 2, vol(box2) = 1*2*2 = 4,
  //   intersection = box at (max componentwise) = (1,1,1) -> 1*1*1 = 1
  //   union = 2 + 4 - 1 = 5.
  EXPECT_NEAR(hypervolume_wfg({{0, 1, 1}, {1, 0, 0}}, {2, 2, 2}), 5.0,
              1e-12);
}

TEST(Hypervolume, WfgMatches2dSweep) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec> pts;
    for (int i = 0; i < 12; ++i) {
      pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    }
    const Vec ref = {1.2, 1.2};
    EXPECT_NEAR(hypervolume_wfg(pts, ref), hypervolume_2d(pts, ref), 1e-10);
  }
}

TEST(Hypervolume, MonteCarloAgreesWithExact) {
  Rng rng(6);
  std::vector<Vec> pts;
  for (int i = 0; i < 15; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const Vec ref = {1.1, 1.1, 1.1};
  const double exact = hypervolume_wfg(pts, ref);
  Rng mc_rng(7);
  const double approx = hypervolume_monte_carlo(pts, ref, mc_rng, 200000);
  EXPECT_NEAR(approx, exact, 0.03 * exact + 1e-6);
}

TEST(Hypervolume, DispatcherSelectsConsistentAnswers) {
  const std::vector<Vec> pts2 = {{1, 2}, {2, 1}};
  EXPECT_DOUBLE_EQ(hypervolume(pts2, {3, 3}), 3.0);
  const std::vector<Vec> pts3 = {{1, 1, 1}};
  EXPECT_NEAR(hypervolume(pts3, {2, 2, 2}), 1.0, 1e-12);
}

TEST(Hypervolume, DefaultReferencePointIsWorseThanAllPoints) {
  const std::vector<Vec> pts = {{1, 5}, {4, 2}, {-1, 3}};
  const Vec ref = default_reference_point(pts, 0.1);
  for (const auto& p : pts) {
    for (std::size_t j = 0; j < p.size(); ++j) EXPECT_GT(ref[j], p[j]);
  }
}

TEST(Hypervolume, EmptyFrontIsZero) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({}, {1, 1}), 0.0);
}

// ---------------------------------------- analytic closed-form references

TEST(Hypervolume, ThreePointStaircaseClosedForm2d) {
  // Points (1,4), (2,3), (3,1) against ref (4,5).  Sweeping x:
  //   x in [1,2): best y = 4 -> height 5-4 = 1
  //   x in [2,3): best y = 3 -> height 5-3 = 2
  //   x in [3,4): best y = 1 -> height 5-1 = 4
  // HV = 1 + 2 + 4 = 7.
  const std::vector<Vec> pts = {{1, 4}, {2, 3}, {3, 1}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(pts, {4, 5}), 7.0);
  EXPECT_NEAR(hypervolume_wfg(pts, {4, 5}), 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(hypervolume(pts, {4, 5}), 7.0);
}

TEST(Hypervolume, SymmetricTriple3dInclusionExclusion) {
  // Points (1,1,3), (1,3,1), (3,1,1) against ref (4,4,4).
  //   each box: 3*3*1 = 9                         (sum 27)
  //   each pairwise intersection box: 3*1*1 = 3   (sum 9)
  //   triple intersection at (3,3,3): 1*1*1 = 1
  // union = 27 - 9 + 1 = 19.
  const std::vector<Vec> pts = {{1, 1, 3}, {1, 3, 1}, {3, 1, 1}};
  EXPECT_NEAR(hypervolume_wfg(pts, {4, 4, 4}), 19.0, 1e-12);
  EXPECT_NEAR(hypervolume(pts, {4, 4, 4}), 19.0, 1e-12);
}

TEST(Hypervolume, NestedDominated3dClosedForm) {
  // (2,2,2) is dominated by (1,1,1): the union is just (1,1,1)'s box
  // against ref (3,3,3) = 2^3 = 8.
  const std::vector<Vec> pts = {{1, 1, 1}, {2, 2, 2}};
  EXPECT_NEAR(hypervolume_wfg(pts, {3, 3, 3}), 8.0, 1e-12);
}

TEST(Hypervolume, SinglePointDegenerateCases) {
  // A point equal to the reference contributes zero volume.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{3, 3}}, {3, 3}), 0.0);
  EXPECT_NEAR(hypervolume_wfg({{2, 2, 2}}, {2, 2, 2}), 0.0, 1e-12);
  // A point matching the reference in one coordinate spans zero width
  // there: box collapses.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{1, 3}}, {3, 3}), 0.0);
  EXPECT_NEAR(hypervolume_wfg({{1, 2, 3}}, {3, 3, 3}), 0.0, 1e-12);
}

TEST(Hypervolume, DuplicatedPointsAddNothing) {
  const std::vector<Vec> once = {{1, 2}};
  const std::vector<Vec> thrice = {{1, 2}, {1, 2}, {1, 2}};
  EXPECT_DOUBLE_EQ(hypervolume_2d(thrice, {4, 4}),
                   hypervolume_2d(once, {4, 4}));
  const std::vector<Vec> once3 = {{1, 1, 2}};
  const std::vector<Vec> twice3 = {{1, 1, 2}, {1, 1, 2}};
  EXPECT_NEAR(hypervolume_wfg(twice3, {3, 3, 3}),
              hypervolume_wfg(once3, {3, 3, 3}), 1e-12);
}

TEST(Hypervolume, PointsDominatedByTheReferenceIgnored3d) {
  // Every point at or beyond the reference contributes nothing; a
  // mixed front counts only the inside points.
  const std::vector<Vec> outside = {{5, 5, 5}, {2, 6, 1}, {9, 0, 9}};
  EXPECT_NEAR(hypervolume_wfg(outside, {4, 4, 4}), 0.0, 1e-12);
  const std::vector<Vec> mixed = {{1, 1, 1}, {5, 5, 5}, {2, 6, 1}};
  EXPECT_NEAR(hypervolume_wfg(mixed, {2, 2, 2}), 1.0, 1e-12);
}

TEST(Hypervolume, NegativeCoordinatesClosedForm) {
  // HV is translation-invariant in the closed form: point (-1,-2)
  // against ref (1,1) spans 2 x 3 = 6.
  EXPECT_DOUBLE_EQ(hypervolume_2d({{-1, -2}}, {1, 1}), 6.0);
  // 3D: (-1,-1,-1) against (1,1,1) spans 2^3 = 8.
  EXPECT_NEAR(hypervolume_wfg({{-1, -1, -1}}, {1, 1, 1}), 8.0, 1e-12);
}

TEST(Hypervolume, AnalyticStaircase3dClosedForm) {
  // Mutually non-dominated staircase (1,2,3), (2,3,1), (3,1,2) vs ref
  // (4,4,4): boxes 3*2*1 = 6 each (sum 18); pairwise intersections are
  // the boxes of the componentwise maxima (2,3,3), (3,3,2), (3,2,3),
  // each 2*1*1 = 2 (sum 6); triple intersection (3,3,3) = 1.
  // union = 18 - 6 + 1 = 13.
  const std::vector<Vec> pts = {{1, 2, 3}, {2, 3, 1}, {3, 1, 2}};
  EXPECT_NEAR(hypervolume_wfg(pts, {4, 4, 4}), 13.0, 1e-12);
}

// --------------------------------------------------------- test problems

TEST(TestProblems, Zdt1FrontValues) {
  // On the true front (g = 1): f2 = 1 - sqrt(f1).
  Vec x(10, 0.0);
  x[0] = 0.25;
  const Vec f = zdt1(x);
  EXPECT_DOUBLE_EQ(f[0], 0.25);
  EXPECT_NEAR(f[1], zdt1_front(0.25), 1e-12);
}

TEST(TestProblems, Zdt2FrontValues) {
  Vec x(10, 0.0);
  x[0] = 0.5;
  const Vec f = zdt2(x);
  EXPECT_NEAR(f[1], zdt2_front(0.5), 1e-12);
}

TEST(TestProblems, AwayFromFrontIsWorse) {
  Vec on(5, 0.0), off(5, 0.5);
  on[0] = off[0] = 0.3;
  EXPECT_LT(zdt1(on)[1], zdt1(off)[1]);
}

TEST(TestProblems, Dtlz2OnFrontSumsToOne) {
  // With all distance variables at 0.5, sum f_i^2 == 1.
  Vec x(7, 0.5);
  x[0] = 0.3;
  x[1] = 0.8;
  const Vec f = dtlz2(x, 3);
  double s = 0.0;
  for (double v : f) s += v * v;
  EXPECT_NEAR(s, 1.0, 1e-10);
}

// ----------------------------------------------------------------- nsga2

double mean_distance_to_zdt1_front(const std::vector<Nsga2Solution>& set) {
  double total = 0.0;
  for (const auto& s : set) {
    total += std::abs(s.objectives[1] - zdt1_front(s.objectives[0]));
  }
  return total / static_cast<double>(set.size());
}

TEST(Nsga2, ConvergesOnZdt1) {
  Nsga2Config cfg;
  cfg.population_size = 64;
  cfg.generations = 120;
  cfg.seed = 8;
  const Vec lo(12, 0.0), hi(12, 1.0);
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) { return zdt1(x); }, lo, hi, cfg);
  ASSERT_FALSE(res.pareto_set.empty());
  EXPECT_LT(mean_distance_to_zdt1_front(res.pareto_set), 0.05);
  // Spread: the front should cover most of f1's range.
  double min_f1 = 1.0, max_f1 = 0.0;
  for (const auto& s : res.pareto_set) {
    min_f1 = std::min(min_f1, s.objectives[0]);
    max_f1 = std::max(max_f1, s.objectives[0]);
  }
  EXPECT_LT(min_f1, 0.15);
  EXPECT_GT(max_f1, 0.7);
}

TEST(Nsga2, HandlesNonConvexZdt2Front) {
  // Linear scalarization cannot populate a concave front; NSGA-II can —
  // this is the paper's Sec. III argument against the RL/IL baselines.
  Nsga2Config cfg;
  cfg.population_size = 64;
  cfg.generations = 120;
  cfg.seed = 9;
  const Vec lo(12, 0.0), hi(12, 1.0);
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) { return zdt2(x); }, lo, hi, cfg);
  // Count interior points (f1 in (0.2, 0.8)) — scalarization would find
  // only the extremes of a concave front.
  int interior = 0;
  for (const auto& s : res.pareto_set) {
    if (s.objectives[0] > 0.2 && s.objectives[0] < 0.8) ++interior;
  }
  EXPECT_GE(interior, 5);
}

TEST(Nsga2, RespectsBounds) {
  Nsga2Config cfg;
  cfg.population_size = 16;
  cfg.generations = 10;
  cfg.seed = 10;
  const Vec lo = {-1.0, 2.0}, hi = {1.0, 5.0};
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) {
        return Vec{x[0] * x[0], (x[1] - 3.0) * (x[1] - 3.0)};
      },
      lo, hi, cfg);
  for (const auto& s : res.final_population) {
    EXPECT_GE(s.x[0], -1.0);
    EXPECT_LE(s.x[0], 1.0);
    EXPECT_GE(s.x[1], 2.0);
    EXPECT_LE(s.x[1], 5.0);
  }
}

TEST(Nsga2, EvaluationCountIsExact) {
  Nsga2Config cfg;
  cfg.population_size = 20;
  cfg.generations = 7;
  const Vec lo(3, 0.0), hi(3, 1.0);
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) { return zdt1(x); }, lo, hi, cfg);
  EXPECT_EQ(res.evaluations, 20u * (7u + 1u));
}

TEST(Nsga2, DeterministicForSeed) {
  Nsga2Config cfg;
  cfg.population_size = 16;
  cfg.generations = 12;
  cfg.seed = 11;
  const Vec lo(4, 0.0), hi(4, 1.0);
  auto run = [&]() {
    return nsga2_minimize([](const Vec& x) { return zdt1(x); }, lo, hi, cfg);
  };
  const auto a = run(), b = run();
  ASSERT_EQ(a.pareto_set.size(), b.pareto_set.size());
  for (std::size_t i = 0; i < a.pareto_set.size(); ++i) {
    EXPECT_EQ(a.pareto_set[i].objectives, b.pareto_set[i].objectives);
  }
}

TEST(Nsga2, InitialSeedPointsAreUsed) {
  // Seeding the known optimum of a simple problem guarantees it survives.
  Nsga2Config cfg;
  cfg.population_size = 16;
  cfg.generations = 5;
  cfg.seed = 12;
  const Vec lo(2, -2.0), hi(2, 2.0);
  const Vec optimum = {0.0, 0.0};
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) {
        return Vec{x[0] * x[0] + x[1] * x[1],
                   (x[0] - 1) * (x[0] - 1) + x[1] * x[1]};
      },
      lo, hi, cfg, {optimum});
  double best = 1e9;
  for (const auto& s : res.pareto_set) best = std::min(best, s.objectives[0]);
  EXPECT_LT(best, 0.05);
}

TEST(Nsga2, MoreSeedsThanPopulationAreTruncated) {
  Nsga2Config cfg;
  cfg.population_size = 4;
  cfg.generations = 2;
  cfg.seed = 14;
  const Vec lo(2, 0.0), hi(2, 1.0);
  std::vector<Vec> seeds(10, Vec{0.5, 0.5});
  const auto res = nsga2_minimize(
      [](const Vec& x) { return zdt1(x); }, lo, hi, cfg, seeds);
  EXPECT_EQ(res.final_population.size(), 4u);
}

TEST(Nsga2, CrowdingDegenerateObjective) {
  // One objective constant: crowding must not divide by zero and the
  // algorithm still runs.
  Nsga2Config cfg;
  cfg.population_size = 8;
  cfg.generations = 4;
  const Vec lo(2, 0.0), hi(2, 1.0);
  const auto res = nsga2_minimize(
      [](const Vec& x) { return Vec{x[0], 1.0}; }, lo, hi, cfg);
  EXPECT_FALSE(res.pareto_set.empty());
}

TEST(Nsga2, ValidatesConfiguration) {
  const Vec lo(2, 0.0), hi(2, 1.0);
  Nsga2Config bad;
  bad.population_size = 5;  // odd
  EXPECT_THROW(
      nsga2_minimize([](const Vec& x) { return zdt1(x); }, lo, hi, bad),
      Error);
  Nsga2Config ok;
  EXPECT_THROW(nsga2_minimize([](const Vec& x) { return zdt1(x); },
                              {1.0, 1.0}, {0.0, 0.0}, ok),
               Error);
}

TEST(Nsga2, RejectsHostileOperatorBudgets) {
  const Vec lo(2, 0.0), hi(2, 1.0);
  const auto zdt = [](const Vec& x) { return zdt1(x); };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<void (*)(Nsga2Config&, double)> setters = {
      [](Nsga2Config& c, double v) { c.crossover_probability = v; },
      [](Nsga2Config& c, double v) { c.mutation_probability = v; },
  };
  for (auto set : setters) {
    for (double bad : {nan, inf, -inf, 1.0 + 1e-12, 7.0}) {
      Nsga2Config cfg;
      set(cfg, bad);
      EXPECT_FALSE(nsga2_config_error(cfg).empty()) << bad;
      EXPECT_THROW(nsga2_minimize(zdt, lo, hi, cfg), Error) << bad;
    }
  }
  const std::vector<void (*)(Nsga2Config&, double)> eta_setters = {
      [](Nsga2Config& c, double v) { c.sbx_eta = v; },
      [](Nsga2Config& c, double v) { c.mutation_eta = v; },
  };
  for (auto set : eta_setters) {
    for (double bad : {nan, inf, -inf, -1e-9, -3.0}) {
      Nsga2Config cfg;
      set(cfg, bad);
      EXPECT_FALSE(nsga2_config_error(cfg).empty()) << bad;
      EXPECT_THROW(nsga2_minimize(zdt, lo, hi, cfg), Error) << bad;
    }
  }
  for (std::size_t bad : {0, 2, 3, 7}) {
    Nsga2Config cfg;
    cfg.population_size = bad;
    EXPECT_THROW(nsga2_minimize(zdt, lo, hi, cfg), Error) << bad;
  }
  Nsga2Config edges;
  edges.population_size = 4;
  edges.generations = 2;
  edges.crossover_probability = 1.0;
  edges.mutation_probability = 1.0;
  edges.sbx_eta = 0.0;
  edges.mutation_eta = 0.0;
  EXPECT_EQ(nsga2_config_error(edges), "");
  EXPECT_NO_THROW(nsga2_minimize(zdt, lo, hi, edges));
}

TEST(Nsga2, ZeroMutationProbabilityMeansNoMutation) {
  // Without crossover and with mutation 0, offspring are copies of
  // parents: no point outside the initial population is ever scored.
  // A negative probability still means 1/d and does mutate.
  const Vec lo(3, 0.0), hi(3, 1.0);
  const auto run = [&](double mutation) {
    Nsga2Config cfg;
    cfg.population_size = 8;
    cfg.generations = 6;
    cfg.crossover_probability = 0.0;
    cfg.mutation_probability = mutation;
    std::vector<std::vector<Vec>> batches;
    const BatchObjectiveFn fn = [&](const std::vector<Vec>& xs) {
      batches.push_back(xs);
      std::vector<Vec> objs;
      for (const Vec& x : xs) objs.push_back(zdt1(x));
      return objs;
    };
    nsga2_minimize(fn, lo, hi, cfg);
    std::size_t novel = 0;
    for (std::size_t b = 1; b < batches.size(); ++b) {
      for (const Vec& x : batches[b]) {
        novel += std::find(batches[0].begin(), batches[0].end(), x) ==
                 batches[0].end();
      }
    }
    return novel;
  };
  EXPECT_EQ(run(0.0), 0u);
  EXPECT_GT(run(-1.0), 0u);
}

// ------------------------------------------- reference-point semantics

TEST(ReferencePoint, PhvIsMonotoneUnderReferenceRelaxation) {
  // Relaxing the reference point (making it weakly worse in every
  // dimension) can only grow the dominated region — the property that
  // makes "one global reference over the union of fronts" a fair
  // comparison: the shared point is weakly worse than every front's
  // own, so every method's PHV grows together.
  const std::vector<Vec> front = {{0.2, 0.9}, {0.5, 0.5}, {0.9, 0.1}};
  double previous = hypervolume(front, {1.0, 1.0});
  for (double relax : {1.2, 1.7, 2.5, 10.0}) {
    const double relaxed = hypervolume(front, {relax, relax});
    EXPECT_GT(relaxed, previous);
    previous = relaxed;
  }
  // Exact growth for a single point: the dominated box area.
  const std::vector<Vec> point = {{1.0, 1.0}};
  EXPECT_DOUBLE_EQ(hypervolume(point, {2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(hypervolume(point, {3.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(hypervolume(point, {3.0, 3.0}), 4.0);
}

TEST(ReferencePoint, DefaultReferenceIsWorseThanEveryUnionPoint) {
  const std::vector<Vec> a = {{0.0, 2.0}, {1.0, 1.0}};
  const std::vector<Vec> b = {{2.0, 0.0}, {0.5, 1.5}};
  std::vector<Vec> all = a;
  all.insert(all.end(), b.begin(), b.end());
  const Vec ref = default_reference_point(all, 0.1);
  for (const auto& p : all) {
    for (std::size_t j = 0; j < p.size(); ++j) EXPECT_GT(ref[j], p[j]);
  }
  // Per-front PHV against the shared reference never exceeds the
  // union's PHV (the union dominates at least as much).
  const double hv_union = hypervolume(all, ref);
  EXPECT_LE(hypervolume(a, ref), hv_union);
  EXPECT_LE(hypervolume(b, ref), hv_union);
}

// ------------------------------------------------- quality indicators

TEST(Indicators, IgdPlusClosedFormCases) {
  const std::vector<Vec> ref = {{0.0, 1.0}, {1.0, 0.0}};
  // A front equal to the reference front scores exactly 0.
  EXPECT_DOUBLE_EQ(igd_plus(ref, ref), 0.0);
  // One point at (1,1): d+ to each reference point is 1.
  EXPECT_DOUBLE_EQ(igd_plus({{1.0, 1.0}}, ref), 1.0);
  // Dominance compliance: a front *beyond* the reference front scores
  // 0, not a phantom distance (the "+" in IGD+).
  EXPECT_DOUBLE_EQ(igd_plus({{-1.0, -1.0}}, ref), 0.0);
  // Mixed: (0,1) matches the first ref point exactly; for (1,0) the
  // nearest approximation point is (0,1) at d+ = 1 (only the worse
  // first component counts) vs (2,2) at sqrt(1+4) -> mean = 1/2.
  EXPECT_DOUBLE_EQ(igd_plus({{0.0, 1.0}, {2.0, 2.0}}, ref), 0.5);
  // Empty approximation front: infinitely far.
  EXPECT_TRUE(std::isinf(igd_plus({}, ref)));
  EXPECT_THROW(igd_plus(ref, {}), Error);
  EXPECT_THROW(igd_plus({{1.0}}, ref), Error);
}

TEST(Indicators, AdditiveEpsilonClosedFormCases) {
  const std::vector<Vec> ref = {{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_DOUBLE_EQ(additive_epsilon(ref, ref), 0.0);
  // (1,1) must shift by 1 to weakly dominate both reference points.
  EXPECT_DOUBLE_EQ(additive_epsilon({{1.0, 1.0}}, ref), 1.0);
  // A strictly dominating front yields a negative epsilon.
  EXPECT_DOUBLE_EQ(additive_epsilon({{-0.5, -0.5}}, ref), -0.5);
  // Asymmetry: the reference front needs no shift to cover (1,1)...
  EXPECT_DOUBLE_EQ(additive_epsilon(ref, {{1.0, 1.0}}), 0.0);
  EXPECT_TRUE(std::isinf(additive_epsilon({}, ref)));
  EXPECT_THROW(additive_epsilon(ref, {}), Error);
}

TEST(Indicators, AgreeWithPhvOnDominationOrdering) {
  // A dominating front must be at least as good on every indicator —
  // the consistency that makes the ranking tables trustworthy.
  const std::vector<Vec> better = {{0.1, 0.8}, {0.4, 0.4}, {0.8, 0.1}};
  const std::vector<Vec> worse = {{0.3, 1.0}, {0.6, 0.6}, {1.0, 0.3}};
  std::vector<Vec> all = better;
  all.insert(all.end(), worse.begin(), worse.end());
  const std::vector<Vec> combined = pareto_front(all);
  const Vec ref = default_reference_point(all, 0.1);
  EXPECT_GT(hypervolume(better, ref), hypervolume(worse, ref));
  EXPECT_LT(igd_plus(better, combined), igd_plus(worse, combined));
  EXPECT_LT(additive_epsilon(better, combined),
            additive_epsilon(worse, combined));
}

// ------------------------------------------------- batched evaluation

// FNV-1a over the bits of every decision vector and objective vector
// of both result sets, in order, plus the evaluation count.
std::uint64_t result_digest(const Nsga2Result& r) {
  std::uint64_t h = fnv1a64(&r.evaluations, sizeof(r.evaluations));
  for (const auto* set : {&r.pareto_set, &r.final_population}) {
    for (const auto& s : *set) {
      h = fnv1a64(s.x.data(), s.x.size() * sizeof(double), h);
      h = fnv1a64(s.objectives.data(), s.objectives.size() * sizeof(double),
                  h);
    }
  }
  return h;
}

void expect_same_result(const Nsga2Result& a, const Nsga2Result& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.pareto_set.size(), b.pareto_set.size());
  EXPECT_EQ(a.final_population.size(), b.final_population.size());
  EXPECT_EQ(result_digest(a), result_digest(b));
}

gp::GpRegressor rff_test_gp(std::size_t n, std::size_t d,
                            std::uint64_t seed) {
  Rng rng(seed);
  num::Matrix X(n, d);
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.uniform(-1.0, 1.0);
      s += X(i, c);
    }
    y[i] = std::sin(s);
  }
  gp::GpRegressor g(std::make_unique<gp::RbfKernel>(1.5, 1.0), 1e-3);
  g.set_data(X, y);
  return g;
}

TEST(Nsga2, BatchMatchesPerPointBitwise) {
  // The pinned digests were produced by the per-point implementation
  // that predates batch evaluation: batching must not move a front.
  {
    Nsga2Config cfg;
    cfg.population_size = 16;
    cfg.generations = 12;
    cfg.seed = 11;
    const Vec lo(6, 0.0), hi(6, 1.0);
    const std::vector<Vec> seeds = {Vec(6, 0.25)};
    const Nsga2Result per_point = nsga2_minimize(
        [](const Vec& x) { return zdt1(x); }, lo, hi, cfg, seeds);
    const BatchObjectiveFn batch_fn = [](const std::vector<Vec>& xs) {
      std::vector<Vec> objs;
      for (const Vec& x : xs) objs.push_back(zdt1(x));
      return objs;
    };
    const Nsga2Result batch = nsga2_minimize(batch_fn, lo, hi, cfg, seeds);
    expect_same_result(per_point, batch);
    EXPECT_EQ(result_digest(batch), 0x30edd154485a8bccULL);
  }
  // Two RFF posterior draws, at the population sizes the front sampler
  // runs.  36 points per generation exercise one full 32-lane block
  // plus a 4-lane tail; 16 and 8 run one block at 16 and 8 lanes, with
  // a column-pass boundary at d = 129.  The weight posterior projects
  // the training inputs at 32, 16 and 8 lanes.
  struct RffCase {
    std::size_t population, dim, train;
    std::uint64_t digest;
  };
  for (const RffCase& c : {RffCase{36, 37, 20, 0xd6ec058b6361fe80ULL},
                           RffCase{16, 129, 12, 0xabd3e336fc1fdb88ULL},
                           RffCase{8, 37, 6, 0x81324883ed592054ULL}}) {
    const std::size_t d = c.dim;
    const gp::GpRegressor g = rff_test_gp(c.train, d, 3);
    Rng rng(4);
    const gp::SampledFunction f0 = gp::sample_posterior_function(g, rng, 48);
    const gp::SampledFunction f1 = gp::sample_posterior_function(g, rng, 48);
    Nsga2Config cfg;
    cfg.population_size = c.population;
    cfg.generations = 6;
    cfg.seed = 5;
    const Vec lo(d, -1.0), hi(d, 1.0);
    const Nsga2Result per_point = nsga2_minimize(
        [&](const Vec& x) { return Vec{f0(x), f1(x)}; }, lo, hi, cfg);
    const BatchObjectiveFn batch_fn = [&](const std::vector<Vec>& xs) {
      num::Matrix xt(d, xs.size());
      for (std::size_t q = 0; q < xs.size(); ++q) {
        for (std::size_t c = 0; c < d; ++c) xt(c, q) = xs[q][c];
      }
      const Vec y0 = f0.eval_many(xt), y1 = f1.eval_many(xt);
      std::vector<Vec> objs;
      for (std::size_t q = 0; q < xs.size(); ++q) {
        objs.push_back({y0[q], y1[q]});
      }
      return objs;
    };
    const Nsga2Result batch = nsga2_minimize(batch_fn, lo, hi, cfg);
    expect_same_result(per_point, batch);
    EXPECT_EQ(result_digest(batch), c.digest) << "population " << c.population;
  }
}

TEST(Nsga2, ThreeObjectiveFullBlockFrontPinned) {
  // A paper-sized population (32, one full projection block) on three
  // objectives with certain crossover, pinned from the implementation
  // that predates the population arena and the flat rank core.
  Nsga2Config cfg;
  cfg.population_size = 32;
  cfg.generations = 10;
  cfg.seed = 21;
  cfg.crossover_probability = 1.0;
  const Vec lo(7, 0.0), hi(7, 1.0);
  const Nsga2Result res = nsga2_minimize(
      [](const Vec& x) { return dtlz2(x, 3); }, lo, hi, cfg);
  EXPECT_EQ(res.pareto_set.size(), 32u);
  EXPECT_EQ(result_digest(res), 0x7018e845924d44beULL);
}

TEST(Nsga2, BatchCallbackSeesWholeGenerations) {
  Nsga2Config cfg;
  cfg.population_size = 12;
  cfg.generations = 5;
  cfg.seed = 15;
  const Vec lo(3, 0.0), hi(3, 1.0);
  const std::vector<Vec> seeds = {{2.0, 0.5, -1.0}, {0.25, 0.75, 0.5}};
  std::vector<std::vector<Vec>> batches;
  const BatchObjectiveFn fn = [&](const std::vector<Vec>& xs) {
    batches.push_back(xs);
    std::vector<Vec> objs;
    for (const Vec& x : xs) objs.push_back(zdt1(x));
    return objs;
  };
  const Nsga2Result res = nsga2_minimize(fn, lo, hi, cfg, seeds);
  ASSERT_EQ(batches.size(), 1u + cfg.generations);
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.size(), cfg.population_size);
  }
  EXPECT_EQ(res.evaluations, cfg.population_size * (1 + cfg.generations));
  // Seeds lead the first batch, clamped to the box.
  EXPECT_EQ(batches[0][0], (Vec{1.0, 0.5, 0.0}));
  EXPECT_EQ(batches[0][1], seeds[1]);

  // A callback must answer every point it was given.
  const BatchObjectiveFn short_fn = [](const std::vector<Vec>& xs) {
    return std::vector<Vec>(xs.size() - 1, Vec{0.0, 0.0});
  };
  EXPECT_THROW(nsga2_minimize(short_fn, lo, hi, cfg), Error);
}

// Parameterized sweep: PHV of NSGA-II's ZDT1 front improves with budget.
class Nsga2BudgetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Nsga2BudgetSweep, MoreGenerationsNeverMuchWorse) {
  Nsga2Config small;
  small.population_size = 32;
  small.generations = GetParam();
  small.seed = 13;
  Nsga2Config big = small;
  big.generations = GetParam() * 4;
  const Vec lo(8, 0.0), hi(8, 1.0);
  auto phv = [&](const Nsga2Config& cfg) {
    const auto res = nsga2_minimize(
        [](const Vec& x) { return zdt1(x); }, lo, hi, cfg);
    std::vector<Vec> front;
    for (const auto& s : res.pareto_set) front.push_back(s.objectives);
    return hypervolume_2d(front, {1.2, 7.0});
  };
  EXPECT_GE(phv(big), phv(small) * 0.98);
}

INSTANTIATE_TEST_SUITE_P(Budgets, Nsga2BudgetSweep,
                         ::testing::Values(5, 10, 20));

}  // namespace
}  // namespace parmis::moo
