#include "moo/nsga2.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "moo/pareto.hpp"

namespace parmis::moo {

namespace {

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// Simulated binary crossover on one gene pair; `exponent` is
/// 1 / (eta + 1).
inline void sbx_gene(double& c1, double& c2, double lo, double hi,
                     double exponent, Rng& rng) {
  if (std::abs(c1 - c2) < 1e-14) return;
  const double u = rng.uniform();
  const double beta =
      std::pow(u <= 0.5 ? 2.0 * u : 1.0 / (2.0 * (1.0 - u)), exponent);
  const double mean = 0.5 * (c1 + c2);
  const double diff = 0.5 * std::abs(c1 - c2);
  const double a = mean - beta * diff;
  const double b = mean + beta * diff;
  const bool swap = rng.bernoulli(0.5);
  c1 = clamp(swap ? b : a, lo, hi);
  c2 = clamp(swap ? a : b, lo, hi);
}

/// Polynomial mutation on one gene; `exponent` is 1 / (eta + 1).
inline void polynomial_mutation_gene(double& gene, double lo, double hi,
                                     double exponent, Rng& rng) {
  const double u = rng.uniform();
  const bool low = u < 0.5;
  const double p = std::pow(low ? 2.0 * u : 2.0 * (1.0 - u), exponent);
  const double delta = low ? p - 1.0 : 1.0 - p;
  gene = clamp(gene + delta * (hi - lo), lo, hi);
}

bool is_probability(double p) { return std::isfinite(p) && p <= 1.0; }

bool is_distribution_index(double eta) {
  return std::isfinite(eta) && eta >= 0.0;
}

}  // namespace

std::string nsga2_config_error(const Nsga2Config& config) {
  if (config.population_size < 4 || config.population_size % 2 != 0) {
    return "population size must be even and >= 4";
  }
  if (!is_probability(config.crossover_probability)) {
    return "crossover probability must be finite and <= 1";
  }
  if (!is_probability(config.mutation_probability)) {
    return "mutation probability must be finite and <= 1";
  }
  if (!is_distribution_index(config.sbx_eta)) {
    return "sbx_eta must be finite and >= 0";
  }
  if (!is_distribution_index(config.mutation_eta)) {
    return "mutation_eta must be finite and >= 0";
  }
  return "";
}

Nsga2Result nsga2_minimize(const BatchObjectiveFn& fn, const Vec& lower,
                           const Vec& upper, const Nsga2Config& config,
                           const std::vector<Vec>& initial_points) {
  require(!lower.empty(), "nsga2: empty bounds");
  require(lower.size() == upper.size(), "nsga2: bound size mismatch");
  for (std::size_t i = 0; i < lower.size(); ++i) {
    require(lower[i] < upper[i], "nsga2: lower bound must be < upper bound");
  }
  const std::string config_error = nsga2_config_error(config);
  require(config_error.empty(), "nsga2: " + config_error);

  const std::size_t d = lower.size();
  const std::size_t n = config.population_size;
  const double mut_p = config.mutation_probability < 0.0
                           ? 1.0 / static_cast<double>(d)
                           : config.mutation_probability;
  const double sbx_exponent = 1.0 / (config.sbx_eta + 1.0);
  const double mutation_exponent = 1.0 / (config.mutation_eta + 1.0);
  Rng rng(config.seed);
  Nsga2Result result;

  // The arena: 2N individuals for the whole run, parents at rows [0, N)
  // and offspring at rows [N, 2N) of the flat objective, rank and
  // crowding buffers.  Each half's genes are their own vector, so the
  // offspring half is the batch `fn` scores.  Survivors are swapped into
  // `next` / `next_objs`, so no generation allocates or moves a gene.
  std::vector<Vec> parents, offspring(n, Vec(d)), next(n, Vec(d));
  std::vector<double> objs, next_objs;  // 2N x k once k is known
  std::size_t k = 0;
  std::vector<std::size_t> rank(2 * n), order(2 * n);
  std::vector<double> crowding(2 * n);
  RankScratch scratch;

  const auto evaluate = [&](const std::vector<Vec>& xs, std::size_t row0) {
    const std::vector<Vec> ys = fn(xs);
    require(ys.size() == xs.size(),
            "nsga2: objective function returned the wrong batch size");
    for (std::size_t i = 0; i < ys.size(); ++i) {
      require(!ys[i].empty(),
              "nsga2: objective function returned empty vector");
      if (k == 0) {
        k = ys[i].size();
        objs.resize(2 * n * k);
        next_objs.resize(2 * n * k);
      }
      require(ys[i].size() == k,
              "nsga2: objective function returned vectors of different "
              "sizes");
      std::copy(ys[i].begin(), ys[i].end(), objs.begin() + (row0 + i) * k);
    }
    result.evaluations += xs.size();
  };

  // Binary tournament on (rank asc, crowding desc) over the parents.
  const auto tournament = [&]() -> const Vec& {
    const std::size_t a = rng.uniform_index(n);
    const std::size_t b = rng.uniform_index(n);
    if (rank[a] != rank[b]) return parents[rank[a] < rank[b] ? a : b];
    return parents[crowding[a] >= crowding[b] ? a : b];
  };

  // --- initial population: seeds (clamped) then uniform random fill ---
  parents.reserve(n);
  for (const Vec& seed_x : initial_points) {
    if (parents.size() == n) break;
    require(seed_x.size() == d, "nsga2: seed point dimension mismatch");
    Vec& x = parents.emplace_back(seed_x);
    for (std::size_t i = 0; i < d; ++i) x[i] = clamp(x[i], lower[i], upper[i]);
  }
  while (parents.size() < n) {
    Vec& x = parents.emplace_back(d);
    for (std::size_t i = 0; i < d; ++i) x[i] = rng.uniform(lower[i], upper[i]);
  }
  evaluate(parents, 0);
  rank_and_crowd(objs.data(), n, k, scratch, rank.data(), crowding.data());

  // --- generational loop ---
  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    for (std::size_t j = 0; j < n; j += 2) {
      Vec& c1 = offspring[j];
      Vec& c2 = offspring[j + 1];
      const Vec& p1 = tournament();
      std::copy(p1.begin(), p1.end(), c1.begin());
      const Vec& p2 = tournament();
      std::copy(p2.begin(), p2.end(), c2.begin());
      if (rng.bernoulli(config.crossover_probability)) {
        for (std::size_t i = 0; i < d; ++i) {
          if (rng.bernoulli(0.5)) {
            sbx_gene(c1[i], c2[i], lower[i], upper[i], sbx_exponent, rng);
          }
        }
      }
      for (Vec* child : {&c1, &c2}) {
        for (std::size_t i = 0; i < d; ++i) {
          if (rng.bernoulli(mut_p)) {
            polynomial_mutation_gene((*child)[i], lower[i], upper[i],
                                     mutation_exponent, rng);
          }
        }
      }
    }
    evaluate(offspring, n);

    // Environmental selection over parents + offspring: the best N rows
    // by (rank asc, crowding desc) become the next parents, in order.
    rank_and_crowd(objs.data(), 2 * n, k, scratch, rank.data(),
                   crowding.data());
    for (std::size_t i = 0; i < 2 * n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return crowding[a] > crowding[b];
    });
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t src = order[i];
      std::swap(next[i], src < n ? parents[src] : offspring[src - n]);
      std::copy_n(objs.begin() + src * k, k, next_objs.begin() + i * k);
    }
    std::swap(parents, next);
    std::swap(objs, next_objs);
    // Tournaments read the survivors' own ranks; the last generation
    // has no more tournaments.
    if (gen + 1 < config.generations) {
      rank_and_crowd(objs.data(), n, k, scratch, rank.data(),
                     crowding.data());
    }
  }

  // --- extract results ---
  std::vector<Vec> final_objs;
  final_objs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    final_objs.emplace_back(objs.begin() + i * k, objs.begin() + (i + 1) * k);
    result.final_population.push_back({parents[i], final_objs.back()});
  }
  for (std::size_t idx : non_dominated_indices(final_objs)) {
    result.pareto_set.push_back({parents[idx], final_objs[idx]});
  }
  return result;
}

Nsga2Result nsga2_minimize(const MultiObjectiveFn& fn, const Vec& lower,
                           const Vec& upper, const Nsga2Config& config,
                           const std::vector<Vec>& initial_points) {
  const BatchObjectiveFn batch = [&fn](const std::vector<Vec>& xs) {
    std::vector<Vec> objs;
    objs.reserve(xs.size());
    for (const Vec& x : xs) objs.push_back(fn(x));
    return objs;
  };
  return nsga2_minimize(batch, lower, upper, config, initial_points);
}

}  // namespace parmis::moo
