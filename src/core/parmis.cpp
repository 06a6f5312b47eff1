#include "core/parmis.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "exec/thread_pool.hpp"
#include "moo/hypervolume.hpp"
#include "moo/pareto.hpp"
#include "obs/obs.hpp"

namespace parmis::core {

std::string parmis_config_error(const ParmisConfig& config) {
  if (config.num_initial < 2) return "num_initial must be >= 2";
  if (!gp::is_kernel_name(config.kernel)) {
    return "unknown kernel \"" + config.kernel + "\" (known: rbf, matern52)";
  }
  if (!std::isfinite(config.noise_variance) || config.noise_variance <= 0.0) {
    return "noise_variance must be finite and > 0";
  }
  if (!std::isfinite(config.theta_bound) || config.theta_bound <= 0.0) {
    return "theta_bound must be finite and > 0";
  }
  if (!std::isfinite(config.perturbation_sd) || config.perturbation_sd < 0.0) {
    return "perturbation_sd must be finite and >= 0";
  }
  if (config.acq_pool_size < 1) return "acq_pool_size must be >= 1";
  return "";
}

std::vector<num::Vec> ParmisResult::pareto_front() const {
  std::vector<num::Vec> out;
  out.reserve(pareto_indices.size());
  for (std::size_t i : pareto_indices) out.push_back(objectives[i]);
  return out;
}

std::vector<num::Vec> ParmisResult::pareto_thetas() const {
  std::vector<num::Vec> out;
  out.reserve(pareto_indices.size());
  for (std::size_t i : pareto_indices) out.push_back(thetas[i]);
  return out;
}

Parmis::Parmis(EvaluationFn evaluate, std::size_t theta_dim,
               std::size_t num_objectives, ParmisConfig config)
    : evaluate_(std::move(evaluate)),
      theta_dim_(theta_dim),
      num_objectives_(num_objectives),
      config_(std::move(config)),
      rng_(config_.seed) {
  require(evaluate_ != nullptr, "parmis: evaluation function required");
  require(theta_dim_ > 0, "parmis: theta dimension must be positive");
  require(num_objectives_ >= 2, "parmis: need at least two objectives");
  const std::string config_error = parmis_config_error(config_);
  require(config_error.empty(), "parmis: " + config_error);

  lower_.assign(theta_dim_, -config_.theta_bound);
  upper_.assign(theta_dim_, config_.theta_bound);

  const double init_lengthscale =
      std::sqrt(static_cast<double>(theta_dim_)) * config_.theta_bound * 0.5;
  for (std::size_t j = 0; j < num_objectives_; ++j) {
    models_.emplace_back(gp::make_kernel(config_.kernel, init_lengthscale),
                         config_.noise_variance);
  }
  if (config_.phv_reference.has_value()) {
    require(config_.phv_reference->size() == num_objectives_,
            "parmis: PHV reference dimension mismatch");
    phv_ref_ = config_.phv_reference;
  }
}

void Parmis::initialize() {
  require(!initialized_, "parmis: already initialized");
  // Anchor thetas first (clamped into the box), then uniform random fill
  // up to the configured design size.
  for (const num::Vec& anchor : config_.initial_thetas) {
    require(anchor.size() == theta_dim_,
            "parmis: initial theta dimension mismatch");
    num::Vec theta = anchor;
    for (std::size_t c = 0; c < theta_dim_; ++c) {
      theta[c] = std::clamp(theta[c], lower_[c], upper_[c]);
    }
    evaluate_and_record(theta);
  }
  const std::size_t design_size =
      std::max(config_.num_initial, config_.initial_thetas.size());
  for (std::size_t i = config_.initial_thetas.size(); i < design_size;
       ++i) {
    num::Vec theta(theta_dim_);
    for (auto& v : theta) v = rng_.uniform(lower_[0], upper_[0]);
    evaluate_and_record(theta);
  }
  initialized_ = true;
  fit_models();
}

void Parmis::fit_models() {
  {
    PARMIS_TRACE_SPAN("gp", "fit_data");
    num::Matrix X(thetas_.size(), theta_dim_);
    for (std::size_t r = 0; r < thetas_.size(); ++r) {
      for (std::size_t c = 0; c < theta_dim_; ++c) X(r, c) = thetas_[r][c];
    }
    for (std::size_t j = 0; j < num_objectives_; ++j) {
      num::Vec y(thetas_.size());
      for (std::size_t r = 0; r < thetas_.size(); ++r) {
        y[r] = objectives_[r][j];
      }
      models_[j].set_data(X, std::move(y));
    }
  }
  const bool refit_hypers =
      iterations_done_ % std::max<std::size_t>(config_.hyperopt_interval, 1) ==
      0;
  if (refit_hypers) {
    for (auto& m : models_) {
      Rng hyper_rng = rng_.split();
      m.optimize_hyperparameters(hyper_rng, config_.hyperopt_candidates);
    }
  }
}

num::Vec Parmis::maximize_acquisition(
    const InformationGainAcquisition& acq) {
  // --- candidate pool ---
  std::vector<num::Vec> pool;
  pool.reserve(config_.acq_pool_size + config_.acq_refine_steps);
  const double sd = config_.perturbation_sd * config_.theta_bound;
  {
    PARMIS_TRACE_SPAN("acq", "pool");
    // (a) sampled-front survivors: decision-space points NSGA-II found to
    //     be Pareto-optimal under the sampled posterior functions.
    const auto& frontier = acq.frontier_thetas();
    const std::size_t quota_frontier =
        std::min(frontier.size(), config_.acq_pool_size / 4);
    for (std::size_t i = 0; i < quota_frontier; ++i) {
      pool.push_back(frontier[i * frontier.size() / quota_frontier]);
    }

    // (b) Gaussian perturbations of the incumbent Pareto-optimal thetas.
    const auto pareto_idx = moo::non_dominated_indices(objectives_);
    const std::size_t quota_local = config_.acq_pool_size / 4;
    for (std::size_t i = 0; i < quota_local && !pareto_idx.empty(); ++i) {
      const num::Vec& base =
          thetas_[pareto_idx[rng_.uniform_index(pareto_idx.size())]];
      num::Vec cand(theta_dim_);
      for (std::size_t c = 0; c < theta_dim_; ++c) {
        cand[c] = std::clamp(base[c] + rng_.normal(0.0, sd), lower_[c],
                             upper_[c]);
      }
      pool.push_back(std::move(cand));
    }

    // (b') Tight perturbations of the per-objective best incumbents:
    // local refinement pressure at the front's extremes, where the
    // paper's fronts visibly extend past the baselines' range.
    if (!pareto_idx.empty()) {
      const double tight_sd = 0.25 * sd;
      const std::size_t quota_exploit = config_.acq_pool_size / 8;
      for (std::size_t i = 0; i < quota_exploit; ++i) {
        const std::size_t obj = i % num_objectives_;
        std::size_t best = pareto_idx.front();
        for (std::size_t idx : pareto_idx) {
          if (objectives_[idx][obj] < objectives_[best][obj]) best = idx;
        }
        num::Vec cand(theta_dim_);
        for (std::size_t c = 0; c < theta_dim_; ++c) {
          cand[c] = std::clamp(thetas_[best][c] + rng_.normal(0.0, tight_sd),
                               lower_[c], upper_[c]);
        }
        pool.push_back(std::move(cand));
      }
    }

    // (c) uniform exploration fills the rest.
    while (pool.size() < config_.acq_pool_size) {
      num::Vec cand(theta_dim_);
      for (auto& v : cand) v = rng_.uniform(lower_[0], upper_[0]);
      pool.push_back(std::move(cand));
    }
  }

  // --- pick argmax, then a short stochastic local refinement ---
  // The whole candidate pool is scored through the batched GP backend
  // (one r^2 sweep per block shared by every model, then each model's
  // tail and solve; the worker pool fans out over blocks).  Batched
  // scores are bit-identical to per-candidate acq.value() calls, and the
  // argmax scan below is index-ordered with a strict comparison, so the
  // winner is the same at every block split and thread count.
  const std::vector<double> scores = acq.values(pool, config_.pool);
  std::size_t best = 0;
  double best_val = -1.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (scores[i] > best_val) {
      best_val = scores[i];
      best = i;
    }
  }
  num::Vec incumbent = pool[best];
  const double refine_sd = 0.25 * sd;
  PARMIS_TRACE_SPAN("acq", "refine");
  for (std::size_t s = 0; s < config_.acq_refine_steps; ++s) {
    num::Vec cand = incumbent;
    for (std::size_t c = 0; c < theta_dim_; ++c) {
      cand[c] = std::clamp(cand[c] + rng_.normal(0.0, refine_sd), lower_[c],
                           upper_[c]);
    }
    const double v = acq.value(cand);
    if (v > best_val) {
      best_val = v;
      incumbent = std::move(cand);
    }
  }
  return incumbent;
}

void Parmis::step() {
  require(initialized_, "parmis: call initialize() first");
  fit_models();
  Rng acq_rng = rng_.split();
  const InformationGainAcquisition acq(models_, lower_, upper_,
                                       config_.acquisition, acq_rng);
  const num::Vec theta = maximize_acquisition(acq);
  evaluate_and_record(theta);
  ++iterations_done_;
}

void Parmis::evaluate_and_record(const num::Vec& theta) {
  num::Vec objs;
  {
    PARMIS_TRACE_SPAN("core", "evaluate");
    objs = evaluate_(theta);
  }
  record_evaluation(theta, objs);
}

void Parmis::record_evaluation(const num::Vec& theta, const num::Vec& objs) {
  require(theta.size() == theta_dim_, "parmis: theta dimension mismatch");
  require(objs.size() == num_objectives_,
          "parmis: objective dimension mismatch (evaluation returned " +
              std::to_string(objs.size()) + ")");
  for (double v : objs) {
    require(std::isfinite(v), "parmis: evaluation returned non-finite value");
  }
  thetas_.push_back(theta);
  objectives_.push_back(objs);
  if (config_.track_convergence) update_phv();
}

void Parmis::update_phv() {
  if (!phv_ref_.has_value()) {
    // Fix the reference once enough points exist, with generous margin so
    // later (worse) explored points still fall inside.
    if (objectives_.size() < 2) {
      phv_history_.push_back(0.0);
      return;
    }
    phv_ref_ = moo::default_reference_point(objectives_, 0.5);
  }
  phv_history_.push_back(moo::hypervolume(objectives_, *phv_ref_));
}

ParmisResult Parmis::run() {
  if (!initialized_) initialize();
  for (std::size_t t = 0; t < config_.max_iterations; ++t) {
    step();
    if ((t + 1) % 25 == 0) {
      log_info() << "parmis: iteration " << (t + 1) << "/"
                 << config_.max_iterations << ", evaluations "
                 << evaluations() << ", PHV "
                 << (phv_history_.empty() ? 0.0 : phv_history_.back());
    }
  }
  return result();
}

ParmisResult Parmis::result() const {
  ParmisResult r;
  r.thetas = thetas_;
  r.objectives = objectives_;
  r.pareto_indices = moo::non_dominated_indices(objectives_);
  r.phv_history = phv_history_;
  if (phv_ref_.has_value()) r.phv_reference = *phv_ref_;
  return r;
}

}  // namespace parmis::core
