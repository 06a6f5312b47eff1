#include "core/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "exec/thread_pool.hpp"
#include "gp/rff.hpp"
#include "numerics/distributions.hpp"
#include "numerics/matrix.hpp"
#include "obs/obs.hpp"

namespace parmis::core {

InformationGainAcquisition::InformationGainAcquisition(
    const std::vector<gp::GpRegressor>& models, const num::Vec& lower,
    const num::Vec& upper, const AcquisitionConfig& config, Rng& rng)
    : models_(&models) {
  require(!models.empty(), "acquisition: need at least one GP model");
  for (const auto& m : models) {
    require(m.has_data(), "acquisition: all GP models need data");
  }
  require(config.num_mc_samples >= 1, "acquisition: S must be >= 1");

  // Models whose training inputs are bitwise equal share each block's
  // r^2 sweep; in PaRMIS every objective's GP is fitted on the same
  // thetas, so there is one group.
  for (std::size_t j = 0; j < models.size(); ++j) {
    const num::Matrix& X = models[j].train_inputs();
    const auto same_inputs = [&](const std::vector<std::size_t>& group) {
      const num::Matrix& G = models[group.front()].train_inputs();
      return G.rows() == X.rows() && G.cols() == X.cols() &&
             std::memcmp(G.data().data(), X.data().data(),
                         X.data().size() * sizeof(double)) == 0;
    };
    const auto group =
        std::find_if(input_groups_.begin(), input_groups_.end(), same_inputs);
    if (group == input_groups_.end()) {
      input_groups_.push_back({j});
    } else {
      group->push_back(j);
    }
  }

  const std::size_t k = models.size();
  for (std::size_t s = 0; s < config.num_mc_samples; ++s) {
    // 1) Draw one posterior function per objective (Thompson-style).
    std::vector<gp::SampledFunction> draws;
    draws.reserve(k);
    for (const auto& m : models) {
      draws.push_back(
          gp::sample_posterior_function(m, rng, config.rff_features));
    }

    // 2) Solve the k-objective minimization over the sampled functions
    //    with NSGA-II to obtain the sampled Pareto front O*_s.  Each
    //    generation is transposed once and scored by every draw in one
    //    blocked pass (bitwise equal to per-point evaluation).
    const moo::BatchObjectiveFn fn =
        [&draws](const std::vector<num::Vec>& thetas) {
          const std::size_t dim = draws.front().input_dim();
          for (const num::Vec& theta : thetas) {
            require(theta.size() == dim,
                    "acquisition: theta dimension mismatch");
          }
          // Row by row, so the writes stream through xt.
          num::Matrix xt(dim, thetas.size());
          for (std::size_t c = 0; c < dim; ++c) {
            double* row = xt.row_view(c).data();
            for (std::size_t q = 0; q < thetas.size(); ++q) {
              row[q] = thetas[q][c];
            }
          }
          std::vector<num::Vec> objs(thetas.size(), num::Vec(draws.size()));
          for (std::size_t j = 0; j < draws.size(); ++j) {
            const num::Vec f = draws[j].eval_many(xt);
            for (std::size_t q = 0; q < thetas.size(); ++q) objs[q][j] = f[q];
          }
          return objs;
        };
    moo::Nsga2Config nsga = config.front_sampler;
    nsga.seed = rng.next_u64();
    moo::Nsga2Result res;
    {
      PARMIS_TRACE_SPAN("acq", "front_sample");
      res = moo::nsga2_minimize(fn, lower, upper, nsga);
    }
    ensure(!res.pareto_set.empty(), "acquisition: empty sampled front");

    std::vector<num::Vec> front;
    front.reserve(res.pareto_set.size());
    for (const auto& sol : res.pareto_set) {
      front.push_back(sol.objectives);
      frontier_thetas_.push_back(sol.x);
    }

    // 3) Per-dimension minima are the truncation points (inequality 6,
    //    mirrored to the minimization convention — see header).
    num::Vec minima(k, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      double mn = front.front()[j];
      for (const auto& z : front) mn = std::min(mn, z[j]);
      minima[j] = mn;
    }
    fronts_.push_back(std::move(front));
    minima_.push_back(std::move(minima));
  }
}

double InformationGainAcquisition::score(const double* mean,
                                         const double* variance) const {
  double total = 0.0;
  for (const num::Vec& minima : minima_) {
    for (std::size_t j = 0; j < minima.size(); ++j) {
      // Lower-truncated Gaussian on [y*, inf): mirrored gamma.
      const double sigma = std::max(std::sqrt(variance[j]), 1e-9);
      const double gamma = (mean[j] - minima[j]) / sigma;
      total += num::entropy_reduction_term(gamma);
    }
  }
  return total / static_cast<double>(minima_.size());
}

void InformationGainAcquisition::score_rows(const double* queries,
                                            std::size_t count,
                                            double* out) const {
  const std::vector<gp::GpRegressor>& models = *models_;
  const std::size_t k = models.size();
  const std::size_t dim = models.front().input_dim();
  std::vector<gp::BatchPrediction> preds(k);
  for (const std::vector<std::size_t>& group : input_groups_) {
    const num::Matrix r2 =
        models[group.front()].query_r2(queries, count, dim);
    for (std::size_t j : group) preds[j] = models[j].predict_from_r2(r2);
  }
  std::vector<double> mean(k), variance(k);
  for (std::size_t q = 0; q < count; ++q) {
    for (std::size_t j = 0; j < k; ++j) {
      mean[j] = preds[j].mean[q];
      variance[j] = preds[j].variance[q];
    }
    out[q] = score(mean.data(), variance.data());
  }
}

double InformationGainAcquisition::value(const num::Vec& theta) const {
  require(theta.size() == models_->front().input_dim(),
          "acquisition: theta dimension mismatch");
  double out = 0.0;
  score_rows(theta.data(), 1, &out);
  return out;
}

std::vector<double> InformationGainAcquisition::values(
    const std::vector<num::Vec>& thetas, exec::ThreadPool* pool) const {
  const std::size_t n = thetas.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  const std::size_t dim = models_->front().input_dim();

  // Block b only writes out[b*kScoreBlock, ...), and each candidate's
  // score depends on its own r^2 row alone, so the scores are identical
  // at any block split or thread count.
  const std::size_t num_blocks = (n + kScoreBlock - 1) / kScoreBlock;
  const auto score_block = [&](std::size_t b) {
    const std::size_t lo = b * kScoreBlock;
    const std::size_t hi = std::min(lo + kScoreBlock, n);
    const std::size_t bn = hi - lo;
    PARMIS_TRACE_SPAN_D("acq", "score_block", "block=%zu;candidates=%zu", b,
                        bn);
    PARMIS_COUNTER_ADD("parmis_acq_candidates_total", bn);
    num::Matrix queries(bn, dim);
    for (std::size_t q = 0; q < bn; ++q) {
      const num::Vec& theta = thetas[lo + q];
      require(theta.size() == dim, "acquisition: theta dimension mismatch");
      double* row = queries.row_view(q).data();
      for (std::size_t c = 0; c < dim; ++c) row[c] = theta[c];
    }
    score_rows(queries.data().data(), bn, out.data() + lo);
  };
  if (pool != nullptr && num_blocks > 1) {
    pool->parallel_for(num_blocks, score_block);
  } else {
    for (std::size_t b = 0; b < num_blocks; ++b) score_block(b);
  }
  return out;
}

}  // namespace parmis::core
