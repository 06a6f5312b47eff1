// NSGA-II (Deb et al. 2002) for real-coded multi-objective optimization.
//
// PaRMIS uses NSGA-II to optimize the k *sampled* objective functions
// (cheap RFF draws) inside the acquisition, producing the sampled Pareto
// front O*_s of paper Sec. IV-B.  The same implementation also powers the
// ablation benches and the ZDT validation tests.  Operators: binary
// tournament on (rank, crowding), simulated binary crossover (SBX), and
// polynomial mutation, all bound-respecting.
#ifndef PARMIS_MOO_NSGA2_HPP
#define PARMIS_MOO_NSGA2_HPP

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "numerics/vec.hpp"

namespace parmis::moo {

using num::Vec;

/// A vector-valued objective: x in R^d -> objectives in R^k (minimized).
using MultiObjectiveFn = std::function<Vec(const Vec&)>;

/// The same objective over a whole population: returns the objective
/// vector of every point, in order.  Lets expensive objectives (RFF
/// posterior draws) score a generation in one blocked pass.
using BatchObjectiveFn =
    std::function<std::vector<Vec>(const std::vector<Vec>&)>;

/// NSGA-II tuning parameters.
struct Nsga2Config {
  std::size_t population_size = 64;   ///< even, >= 4
  std::size_t generations = 50;
  double crossover_probability = 0.9; ///< finite, <= 1
  double sbx_eta = 15.0;              ///< SBX distribution index, >= 0
  double mutation_probability = -1.0; ///< per-gene, <= 1; negative means
                                      ///< 1/d, 0 means no mutation
  double mutation_eta = 20.0;         ///< polynomial-mutation index, >= 0
  std::uint64_t seed = 1;
};

/// The first rule `config` breaks (population even and >= 4, finite
/// probabilities <= 1, finite non-negative etas), or "" if it is valid.
/// nsga2_minimize rejects exactly these configurations.
std::string nsga2_config_error(const Nsga2Config& config);

/// One evaluated solution.
struct Nsga2Solution {
  Vec x;          ///< decision vector
  Vec objectives; ///< objective values (minimization)
};

/// Result: the final non-dominated set plus the full final population.
struct Nsga2Result {
  std::vector<Nsga2Solution> pareto_set;
  std::vector<Nsga2Solution> final_population;
  std::size_t evaluations = 0;
};

/// Runs NSGA-II on `fn` over the box [lower, upper].
/// `lower`/`upper` must have equal size d >= 1 with lower[i] < upper[i].
/// Optional `initial_points` seed part of the first population (clamped
/// to the box); useful for warm-starting from incumbent policies.
///
/// `fn` sees 1 + generations batches of population_size points: the
/// initial population (seeds first), then each generation's offspring
/// once all of that generation's variation is drawn.  Evaluation never
/// touches the RNG, so the result does not depend on batching.
Nsga2Result nsga2_minimize(const BatchObjectiveFn& fn, const Vec& lower,
                           const Vec& upper, const Nsga2Config& config,
                           const std::vector<Vec>& initial_points = {});

/// Per-point adapter: scores each batch one point at a time, in order.
/// Bitwise identical to the batch form over the same objective.
Nsga2Result nsga2_minimize(const MultiObjectiveFn& fn, const Vec& lower,
                           const Vec& upper, const Nsga2Config& config,
                           const std::vector<Vec>& initial_points = {});

}  // namespace parmis::moo

#endif  // PARMIS_MOO_NSGA2_HPP
