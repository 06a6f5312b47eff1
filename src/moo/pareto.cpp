#include "moo/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace parmis::moo {

bool dominates(const Vec& a, const Vec& b) {
  require(a.size() == b.size(), "dominates: dimension mismatch");
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

bool incomparable(const Vec& a, const Vec& b) {
  return !dominates(a, b) && !dominates(b, a) && a != b;
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<Vec>& points) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool keep = true;
    for (std::size_t j = 0; j < points.size() && keep; ++j) {
      if (j == i) continue;
      if (dominates(points[j], points[i])) keep = false;
      // Exact duplicates: keep only the first occurrence.
      if (points[j] == points[i] && j < i) keep = false;
    }
    if (keep) out.push_back(i);
  }
  return out;
}

std::vector<Vec> pareto_front(const std::vector<Vec>& points) {
  std::vector<Vec> out;
  for (std::size_t idx : non_dominated_indices(points)) {
    out.push_back(points[idx]);
  }
  return out;
}

namespace {

/// Crowding distance of the m points objs[members[i]] (k objectives
/// each) into scratch.distance[0, m).  Each objective re-sorts the
/// permutation the previous one left, so std::sort always sees the same
/// sequences for the same input.  A NaN distance is written as the one
/// canonical quiet NaN: when both operands of a sum are NaN, IEEE 754
/// leaves the result's sign to the operand order the compiler picks.
void crowd_front(const double* objs, std::size_t k, const std::size_t* members,
                 std::size_t m, RankScratch& s) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  s.distance.assign(m, m <= 2 ? inf : 0.0);
  if (m <= 2) return;
  s.order.resize(m);
  s.values.resize(m);
  for (std::size_t i = 0; i < m; ++i) s.order[i] = i;
  double* dist = s.distance.data();
  const double* v = s.values.data();
  for (std::size_t obj = 0; obj < k; ++obj) {
    for (std::size_t i = 0; i < m; ++i) {
      s.values[i] = objs[members[i] * k + obj];
    }
    std::sort(s.order.begin(), s.order.end(),
              [v](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    const double lo = v[s.order.front()];
    const double hi = v[s.order.back()];
    dist[s.order.front()] = inf;
    dist[s.order.back()] = inf;
    const double span = hi - lo;
    if (span <= 0.0) continue;  // degenerate objective: no interior credit
    for (std::size_t i = 1; i + 1 < m; ++i) {
      dist[s.order[i]] += (v[s.order[i + 1]] - v[s.order[i - 1]]) / span;
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (std::isnan(dist[i])) {
      dist[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
}

/// Rows of `points` as one n x k buffer; all rows must have size k.
std::vector<double> flatten(const std::vector<Vec>& points, std::size_t k) {
  std::vector<double> flat;
  flat.reserve(points.size() * k);
  for (const Vec& p : points) {
    require(p.size() == k, "pareto: points of different dimension");
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

}  // namespace

void rank_and_crowd(const double* objs, std::size_t n, std::size_t k,
                    RankScratch& s, std::size_t* rank, double* crowding) {
  // Pairwise dominance in one pass per pair: p dominates q iff no
  // objective of p is greater and one is smaller (NaN compares neither).
  // Pairs are visited in (min, max) order, so every row of `dominated`
  // fills in ascending index order.
  s.dominated.resize(n * n);
  s.row_size.assign(n, 0);
  s.dominators.assign(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    const double* a = objs + p * k;
    for (std::size_t q = p + 1; q < n; ++q) {
      const double* b = objs + q * k;
      bool less = false, greater = false;
      for (std::size_t j = 0; j < k; ++j) {
        less |= a[j] < b[j];
        greater |= a[j] > b[j];
      }
      if (less && !greater) {
        s.dominated[p * n + s.row_size[p]++] = q;
        ++s.dominators[q];
      } else if (greater && !less) {
        s.dominated[q * n + s.row_size[q]++] = p;
        ++s.dominators[p];
      }
    }
  }
  // Peel fronts: the first in index order, each next one in the order its
  // members lose their last dominator.
  s.members.clear();
  s.front_begin.assign(1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    if (s.dominators[p] == 0) s.members.push_back(p);
  }
  for (std::size_t begin = 0; begin < s.members.size();) {
    const std::size_t end = s.members.size();
    s.front_begin.push_back(end);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t p = s.members[i];
      const std::size_t* row = s.dominated.data() + p * n;
      for (std::size_t t = 0; t < s.row_size[p]; ++t) {
        if (--s.dominators[row[t]] == 0) s.members.push_back(row[t]);
      }
    }
    begin = end;
  }
  for (std::size_t f = 0; f + 1 < s.front_begin.size(); ++f) {
    const std::size_t* front = s.members.data() + s.front_begin[f];
    const std::size_t m = s.front_begin[f + 1] - s.front_begin[f];
    crowd_front(objs, k, front, m, s);
    for (std::size_t i = 0; i < m; ++i) {
      rank[front[i]] = f;
      crowding[front[i]] = s.distance[i];
    }
  }
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<Vec>& points) {
  const std::size_t n = points.size();
  const std::size_t k = n == 0 ? 0 : points.front().size();
  const std::vector<double> flat = flatten(points, k);
  RankScratch s;
  std::vector<std::size_t> rank(n);
  std::vector<double> crowding(n);
  rank_and_crowd(flat.data(), n, k, s, rank.data(), crowding.data());
  std::vector<std::vector<std::size_t>> fronts;
  for (std::size_t f = 0; f + 1 < s.front_begin.size(); ++f) {
    fronts.emplace_back(s.members.begin() + s.front_begin[f],
                        s.members.begin() + s.front_begin[f + 1]);
  }
  return fronts;
}

std::vector<double> crowding_distance(
    const std::vector<Vec>& points, const std::vector<std::size_t>& members) {
  if (members.empty()) return {};
  const std::size_t k = points[members[0]].size();
  const std::vector<double> flat = flatten(points, k);
  RankScratch s;
  crowd_front(flat.data(), k, members.data(), members.size(), s);
  return std::move(s.distance);
}

Vec componentwise_max(const std::vector<Vec>& points) {
  require(!points.empty(), "componentwise_max: empty set");
  Vec out = points.front();
  for (const Vec& p : points) {
    require(p.size() == out.size(), "componentwise_max: ragged points");
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::max(out[i], p[i]);
    }
  }
  return out;
}

Vec componentwise_min(const std::vector<Vec>& points) {
  require(!points.empty(), "componentwise_min: empty set");
  Vec out = points.front();
  for (const Vec& p : points) {
    require(p.size() == out.size(), "componentwise_min: ragged points");
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], p[i]);
    }
  }
  return out;
}

}  // namespace parmis::moo
