#include "moo/nsga2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "moo/pareto.hpp"

namespace parmis::moo {

namespace {

struct Individual {
  Vec x;
  Vec objs;
  std::size_t rank = 0;
  double crowding = 0.0;
};

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// Simulated binary crossover on one gene pair.
void sbx_gene(double& c1, double& c2, double lo, double hi, double eta,
              Rng& rng) {
  if (std::abs(c1 - c2) < 1e-14) return;
  const double u = rng.uniform();
  double beta;
  if (u <= 0.5) {
    beta = std::pow(2.0 * u, 1.0 / (eta + 1.0));
  } else {
    beta = std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0));
  }
  const double mean = 0.5 * (c1 + c2);
  const double diff = 0.5 * std::abs(c1 - c2);
  double a = mean - beta * diff;
  double b = mean + beta * diff;
  if (rng.bernoulli(0.5)) std::swap(a, b);
  c1 = clamp(a, lo, hi);
  c2 = clamp(b, lo, hi);
}

/// Polynomial mutation on one gene.
void polynomial_mutation_gene(double& gene, double lo, double hi, double eta,
                              Rng& rng) {
  const double span = hi - lo;
  const double u = rng.uniform();
  double delta;
  if (u < 0.5) {
    delta = std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0;
  } else {
    delta = 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
  }
  gene = clamp(gene + delta * span, lo, hi);
}

/// Binary tournament on (rank asc, crowding desc).
const Individual& tournament(const std::vector<Individual>& pop, Rng& rng) {
  const Individual& a = pop[rng.uniform_index(pop.size())];
  const Individual& b = pop[rng.uniform_index(pop.size())];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

void assign_ranks_and_crowding(std::vector<Individual>& pop) {
  std::vector<Vec> objs;
  objs.reserve(pop.size());
  for (const auto& ind : pop) objs.push_back(ind.objs);
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const auto cd = crowding_distance(objs, fronts[f]);
    for (std::size_t i = 0; i < fronts[f].size(); ++i) {
      pop[fronts[f][i]].rank = f;
      pop[fronts[f][i]].crowding = cd[i];
    }
  }
}

}  // namespace

Nsga2Result nsga2_minimize(const BatchObjectiveFn& fn, const Vec& lower,
                           const Vec& upper, const Nsga2Config& config,
                           const std::vector<Vec>& initial_points) {
  require(!lower.empty(), "nsga2: empty bounds");
  require(lower.size() == upper.size(), "nsga2: bound size mismatch");
  for (std::size_t i = 0; i < lower.size(); ++i) {
    require(lower[i] < upper[i], "nsga2: lower bound must be < upper bound");
  }
  require(config.population_size >= 4 && config.population_size % 2 == 0,
          "nsga2: population size must be even and >= 4");

  const std::size_t d = lower.size();
  const double mut_p = config.mutation_probability > 0.0
                           ? config.mutation_probability
                           : 1.0 / static_cast<double>(d);
  Rng rng(config.seed);
  Nsga2Result result;

  std::vector<Vec> xs;
  auto evaluate = [&](std::vector<Individual>& inds) {
    xs.clear();
    for (const auto& ind : inds) xs.push_back(ind.x);
    std::vector<Vec> objs = fn(xs);
    require(objs.size() == inds.size(),
            "nsga2: objective function returned the wrong batch size");
    for (std::size_t i = 0; i < inds.size(); ++i) {
      require(!objs[i].empty(),
              "nsga2: objective function returned empty vector");
      inds[i].objs = std::move(objs[i]);
    }
    result.evaluations += inds.size();
  };

  // --- initial population: seeds (clamped) then uniform random fill ---
  std::vector<Individual> pop;
  pop.reserve(config.population_size);
  for (const Vec& seed_x : initial_points) {
    if (pop.size() == config.population_size) break;
    require(seed_x.size() == d, "nsga2: seed point dimension mismatch");
    Individual ind;
    ind.x = seed_x;
    for (std::size_t i = 0; i < d; ++i) {
      ind.x[i] = clamp(ind.x[i], lower[i], upper[i]);
    }
    pop.push_back(std::move(ind));
  }
  while (pop.size() < config.population_size) {
    Individual ind;
    ind.x.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      ind.x[i] = rng.uniform(lower[i], upper[i]);
    }
    pop.push_back(std::move(ind));
  }
  evaluate(pop);
  assign_ranks_and_crowding(pop);

  // --- generational loop ---
  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    std::vector<Individual> offspring;
    offspring.reserve(config.population_size);
    while (offspring.size() < config.population_size) {
      Individual c1 = tournament(pop, rng);
      Individual c2 = tournament(pop, rng);
      if (rng.bernoulli(config.crossover_probability)) {
        for (std::size_t i = 0; i < d; ++i) {
          if (rng.bernoulli(0.5)) {
            sbx_gene(c1.x[i], c2.x[i], lower[i], upper[i], config.sbx_eta,
                     rng);
          }
        }
      }
      for (Individual* child : {&c1, &c2}) {
        for (std::size_t i = 0; i < d; ++i) {
          if (rng.bernoulli(mut_p)) {
            polynomial_mutation_gene(child->x[i], lower[i], upper[i],
                                     config.mutation_eta, rng);
          }
        }
        offspring.push_back(std::move(*child));
        if (offspring.size() == config.population_size) break;
      }
    }
    evaluate(offspring);

    // Environmental selection over parents + offspring.
    std::vector<Individual> merged = std::move(pop);
    for (auto& ind : offspring) merged.push_back(std::move(ind));
    assign_ranks_and_crowding(merged);

    std::vector<std::size_t> order(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (merged[a].rank != merged[b].rank) {
        return merged[a].rank < merged[b].rank;
      }
      return merged[a].crowding > merged[b].crowding;
    });
    pop.clear();
    pop.reserve(config.population_size);
    for (std::size_t i = 0; i < config.population_size; ++i) {
      pop.push_back(std::move(merged[order[i]]));
    }
    assign_ranks_and_crowding(pop);
  }

  // --- extract results ---
  for (const auto& ind : pop) {
    result.final_population.push_back({ind.x, ind.objs});
  }
  std::vector<Vec> objs;
  objs.reserve(pop.size());
  for (const auto& ind : pop) objs.push_back(ind.objs);
  for (std::size_t idx : non_dominated_indices(objs)) {
    result.pareto_set.push_back({pop[idx].x, pop[idx].objs});
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
