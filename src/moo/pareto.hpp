// Pareto-dominance primitives (minimization convention, paper Sec. II).
//
// A point a dominates b iff a_i <= b_i for all objectives and a_j < b_j
// for at least one j.  All PaRMIS objectives are minimized internally;
// maximized objectives (PPW) are negated at the Objective boundary.
#ifndef PARMIS_MOO_PARETO_HPP
#define PARMIS_MOO_PARETO_HPP

#include <cstddef>
#include <vector>

#include "numerics/vec.hpp"

namespace parmis::moo {

using num::Vec;

/// True iff `a` Pareto-dominates `b` (minimization).  Sizes must match.
bool dominates(const Vec& a, const Vec& b);

/// True iff neither point dominates the other and they differ.
bool incomparable(const Vec& a, const Vec& b);

/// Indices of the non-dominated subset of `points` (first occurrence wins
/// among exact duplicates), preserving input order.
std::vector<std::size_t> non_dominated_indices(const std::vector<Vec>& points);

/// The non-dominated subset itself.
std::vector<Vec> pareto_front(const std::vector<Vec>& points);

/// Caller-owned working memory of rank_and_crowd().  Reused across
/// calls of the same size, it makes the core allocation-free.
struct RankScratch {
  std::vector<std::size_t> dominated;    ///< n x n: row p = whom p dominates
  std::vector<std::size_t> row_size;     ///< used length of each row
  std::vector<std::size_t> dominators;   ///< per point, not yet peeled
  std::vector<std::size_t> members;      ///< every front, front by front
  std::vector<std::size_t> front_begin;  ///< front f: [begin[f], begin[f+1])
  std::vector<std::size_t> order;        ///< crowding sort permutation
  std::vector<double> values;            ///< one objective of one front
  std::vector<double> distance;          ///< crowding of one front
};

/// The one NSGA-II rank-and-crowding implementation, over the n x k
/// objective rows `objs` (point i is objs[i*k .. i*k+k)).  Leaves the
/// fast non-dominated sort's fronts in scratch.members/front_begin and
/// writes, per point i, rank[i] (its front) and crowding[i] (its
/// crowding distance within that front).
void rank_and_crowd(const double* objs, std::size_t n, std::size_t k,
                    RankScratch& scratch, std::size_t* rank,
                    double* crowding);

/// Fast non-dominated sort (Deb et al., NSGA-II): returns fronts of
/// indices; fronts[0] is the Pareto front, fronts[1] the next layer, etc.
/// A wrapper over rank_and_crowd().
std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Vec>& points);

/// Crowding distance for the subset `members` of `points` (NSGA-II
/// diversity measure).  Boundary members get +infinity.  Returned in the
/// same order as `members`.  Same arithmetic as rank_and_crowd().
std::vector<double> crowding_distance(const std::vector<Vec>& points,
                                      const std::vector<std::size_t>& members);

/// Component-wise maxima over a set of points (the per-dimension upper
/// bounds used by the acquisition's truncation, paper inequality 6).
Vec componentwise_max(const std::vector<Vec>& points);

/// Component-wise minima (the ideal point of a set).
Vec componentwise_min(const std::vector<Vec>& points);

}  // namespace parmis::moo

#endif  // PARMIS_MOO_PARETO_HPP
