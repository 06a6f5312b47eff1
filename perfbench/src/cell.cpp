// cell-xu3: one full-budget PaRMIS cell on xu3-mibench-te, one thread.
//
// Untraced: CampaignRunner::run_cell repeated for the run's seconds; the
// front must repeat bit for bit.  After each cell its ResultCache entry
// is replayed (the lookup a re-run campaign makes); the replayed front
// must match bit for bit too.
//
// Traced: drives core::Parmis step by step on the same problem and
// config, timing the EvaluationFn through a wrapper, and after each step
// replays that iteration's phases on the same data through public calls
// (GP fit and hyperopt, RFF posterior draws, NSGA-II over the draws,
// batched pool scoring, the scalar refine loop, PHV), timing each.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cache/result_cache.hpp"
#include "common/fs.hpp"
#include "common/rng.hpp"
#include "core/acquisition.hpp"
#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "exec/campaign.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "gp/rff.hpp"
#include "moo/hypervolume.hpp"
#include "moo/nsga2.hpp"
#include "numerics/matrix.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace core = parmis::core;
namespace exec = parmis::exec;
namespace gp = parmis::gp;
namespace moo = parmis::moo;
namespace scenario = parmis::scenario;

constexpr const char* kScenario = "xu3-mibench-te";
constexpr std::size_t kAnchorLimit = 3;

scenario::ScenarioSpec cell_spec(bool smoke) {
  scenario::ScenarioSpec spec = scenario::make_scenario(kScenario);
  spec.parmis = scenario::campaign_parmis_budget(!smoke);
  spec.methods = {"parmis"};
  return spec;
}

// The cell's problem, materialised exactly as CampaignRunner::run_cell
// and the parmis method build it.
struct CellProblem {
  scenario::ScenarioSpec spec;
  parmis::soc::SocSpec soc_spec;  ///< the platform keeps a reference to it
  std::unique_ptr<parmis::soc::Platform> platform;
  std::vector<parmis::soc::Application> apps;
  std::vector<parmis::runtime::Objective> objectives;
  parmis::runtime::EvaluatorConfig eval_config;
  std::unique_ptr<core::DrmPolicyProblem> problem;
  core::ParmisConfig config;
};

std::unique_ptr<CellProblem> build_problem(bool smoke, std::uint64_t seed) {
  auto p = std::make_unique<CellProblem>();
  p->spec = cell_spec(smoke);
  p->spec.validate();
  parmis::soc::PlatformConfig platform_config = p->spec.platform_config;
  platform_config.noise_seed =
      cell_noise_seed(p->spec.name, platform_config.noise_seed, seed);
  p->soc_spec = scenario::make_platform_spec(p->spec);
  p->platform =
      std::make_unique<parmis::soc::Platform>(p->soc_spec, platform_config);
  p->apps = scenario::make_applications(p->spec);
  p->objectives = scenario::make_objectives(p->spec);
  p->eval_config = scenario::make_evaluator_config(p->spec);
  p->problem = std::make_unique<core::DrmPolicyProblem>(
      *p->platform, p->apps, p->objectives,
      parmis::policy::MlpPolicyConfig{}, p->eval_config);
  p->config = p->spec.parmis;
  p->config.seed = seed;
  std::vector<num::Vec> anchors = p->problem->anchor_thetas();
  if (anchors.size() > kAnchorLimit) anchors.resize(kAnchorLimit);
  p->config.initial_thetas = std::move(anchors);
  return p;
}

exec::CellResult run_reference_cell(const scenario::ScenarioSpec& spec,
                                    std::uint64_t seed) {
  return exec::CampaignRunner::run_cell(spec, "parmis", seed, kAnchorLimit);
}

std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  std::uint64_t s = state ^ value;
  return parmis::splitmix64(s);
}

}  // namespace

std::uint64_t cell_noise_seed(const std::string& scenario_name,
                              std::uint64_t base, std::uint64_t seed) {
  std::uint64_t state = base;
  for (unsigned char c : scenario_name) state = mix(state, c);
  return mix(mix(state, scenario_name.size()), seed);
}

void run_cell_workload(const Options& opt, Result& out) {
  const scenario::ScenarioSpec spec = cell_spec(opt.smoke);
  parmis::cache::ResultCache cache(opt.work_dir + "/cell-cache");
  const parmis::cache::CellKey key =
      parmis::cache::cell_key(spec, "parmis", opt.seed, kAnchorLimit);
  std::vector<double> cell_s;
  const std::size_t cpus = CpuRotation().size();
  PerCpuSamples setup_s(cpus), replay_s(cpus);
  exec::CellResult first;
  const double start = now_s();
  // Set-up and replay are sampled around every cell, so their medians
  // span the whole run; the cell itself rotates over the CPUs.
  for (;;) {
    // Set-up: scenario materialisation and problem build.
    time_reps_on_every_cpu(5, setup_s,
                           [&] { (void)build_problem(opt.smoke, opt.seed); });
    exec::CellResult cell;
    {
      const CpuRotator rotator(std::chrono::milliseconds(100),
                               CpuRotator::calling_thread());
      const double t0 = now_s();
      cell = run_reference_cell(spec, opt.seed);
      cell_s.push_back(now_s() - t0);
    }
    const bool ok = cell.error.empty() && !cell.front.empty();
    out.ops(1, ok ? 0 : 1, "cell failed: " + cell.error);
    if (cell_s.size() == 1) {
      first = cell;
      cache.store(key, first);
    } else {
      out.check(same_bits(cell.front, first.front),
                "cell front repeats bit for bit");
    }
    // Replay: the cache lookup a re-run campaign makes instead of
    // recomputing the cell, per Pareto policy in the entry (entries grow
    // with the front, whose size depends on the seed).
    time_reps_on_every_cpu(9, replay_s, [&] {
      const std::optional<exec::CellResult> hit = cache.lookup(key);
      const bool same = hit.has_value() && same_bits(hit->front, first.front);
      out.ops(1, same ? 0 : 1, "cached replay differs from the cell");
    });
    const double elapsed = now_s() - start;
    if (elapsed + cell_s.back() > opt.seconds) break;
  }

  out.metric("job_s", median(cell_s), "s");
  const std::size_t policies = std::max<std::size_t>(first.front.size(), 1);
  out.metric("replay_ms", replay_s.value() * 1e3 / policies, "ms");
  out.metric("tail_ms", tail(cell_s) * 1e3, "ms");
  out.metric("front_phv", normalized_phv(first.front), "ratio");
  out.metric("setup_s", setup_s.value(), "s");
  out.metric("peak_rss_mb", peak_rss_mb(false), "MiB");
  out.note("cell_s", std::to_string(median(cell_s)));
  out.note("cells", std::to_string(cell_s.size()));
  out.note("evaluations", std::to_string(first.evaluations));
  out.note("front_size", std::to_string(first.front.size()));
}

void trace_cell(const Options& opt, Result& out) {
  std::unique_ptr<CellProblem> cp = build_problem(opt.smoke, opt.seed);
  const core::ParmisConfig& cfg = cp->config;
  const std::size_t k = cp->objectives.size();
  const std::size_t d = cp->problem->theta_dim();

  // The real loop, with the evaluation timed through a wrapper.
  core::EvaluationFn inner = cp->problem->evaluation_fn();
  double evaluate_s = 0.0;
  double evaluate_in_steps_s = 0.0;
  std::size_t evaluations = 0;
  bool in_step = false;
  core::EvaluationFn timed_eval = [&](const num::Vec& theta) {
    const double t0 = now_s();
    num::Vec o = inner(theta);
    const double dt = now_s() - t0;
    evaluate_s += dt;
    if (in_step) evaluate_in_steps_s += dt;
    ++evaluations;
    return o;
  };
  core::Parmis parmis(timed_eval, d, k, cfg);

  // Shadow models for the replay, built the way Parmis builds its own.
  const double init_ls =
      std::sqrt(static_cast<double>(d)) * cfg.theta_bound * 0.5;
  std::vector<gp::GpRegressor> models;
  for (std::size_t j = 0; j < k; ++j) {
    models.emplace_back(gp::make_kernel(cfg.kernel, init_ls),
                        cfg.noise_variance);
  }
  const num::Vec lower(d, -cfg.theta_bound);
  const num::Vec upper(d, cfg.theta_bound);
  parmis::Rng rng(opt.seed ^ 0x7E57ULL);

  double fit_s = 0.0, hyperopt_s = 0.0, rff_sample_s = 0.0, nsga2_s = 0.0;
  double acq_score_s = 0.0, acq_refine_s = 0.0, phv_s = 0.0;
  double rff_eval_s = 0.0;
  std::size_t rff_calls = 0, nsga2_evals = 0, scored = 0;
  std::vector<double> step_s;

  const double cell_t0 = now_s();
  double cell_wall = 0.0;
  parmis.initialize();
  cell_wall += now_s() - cell_t0;
  for (std::size_t it = 0; it < cfg.max_iterations; ++it) {
    const double t0 = now_s();
    in_step = true;
    parmis.step();
    in_step = false;
    step_s.push_back(now_s() - t0);
    cell_wall += step_s.back();

    // Replay iteration `it` on the data it fitted: every evaluation but
    // the one it just added.
    const core::ParmisResult state = parmis.result();
    const std::size_t n = state.thetas.size() - 1;
    num::Matrix X(n, d);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < d; ++c) X(r, c) = state.thetas[r][c];
    }
    double t = now_s();
    for (std::size_t j = 0; j < k; ++j) {
      num::Vec y(n);
      for (std::size_t r = 0; r < n; ++r) y[r] = state.objectives[r][j];
      models[j].set_data(X, std::move(y));
    }
    fit_s += now_s() - t;
    if (it % std::max<std::size_t>(cfg.hyperopt_interval, 1) == 0) {
      t = now_s();
      for (auto& m : models) {
        parmis::Rng hyper_rng = rng.split();
        m.optimize_hyperparameters(
            hyper_rng, static_cast<int>(cfg.hyperopt_candidates));
      }
      hyperopt_s += now_s() - t;
    }
    for (std::size_t s = 0; s < cfg.acquisition.num_mc_samples; ++s) {
      std::vector<gp::SampledFunction> draws;
      t = now_s();
      for (const auto& m : models) {
        draws.push_back(gp::sample_posterior_function(
            m, rng, cfg.acquisition.rff_features));
      }
      rff_sample_s += now_s() - t;
      moo::MultiObjectiveFn fn = [&](const num::Vec& theta) {
        num::Vec o(draws.size());
        for (std::size_t j = 0; j < draws.size(); ++j) {
          const double c0 = now_s();
          o[j] = draws[j](theta);
          rff_eval_s += now_s() - c0;
        }
        rff_calls += draws.size();
        return o;
      };
      moo::Nsga2Config nsga = cfg.acquisition.front_sampler;
      nsga.seed = rng.next_u64();
      t = now_s();
      const moo::Nsga2Result res = moo::nsga2_minimize(fn, lower, upper, nsga);
      nsga2_s += now_s() - t;
      nsga2_evals += res.evaluations;
    }
    // A scoring object over the same models; its own front sampling is
    // cut to a token budget (scoring cost does not depend on it).
    core::AcquisitionConfig token = cfg.acquisition;
    token.front_sampler.population_size = 4;
    token.front_sampler.generations = 1;
    token.rff_features = 4;
    const core::InformationGainAcquisition acq(models, lower, upper, token,
                                               rng);
    std::vector<num::Vec> pool(cfg.acq_pool_size, num::Vec(d));
    for (auto& cand : pool) {
      for (auto& v : cand) v = rng.uniform(-cfg.theta_bound, cfg.theta_bound);
    }
    t = now_s();
    const std::vector<double> scores = acq.values(pool);
    acq_score_s += now_s() - t;
    scored += scores.size();
    t = now_s();
    double best = 0.0;
    for (std::size_t s = 0; s < cfg.acq_refine_steps; ++s) {
      best = std::max(best, acq.value(pool[s % pool.size()]));
    }
    acq_refine_s += now_s() - t;
    const std::vector<num::Vec> all(state.objectives.begin(),
                                    state.objectives.end());
    const num::Vec ref = moo::default_reference_point(all, 0.5);
    t = now_s();
    (void)moo::hypervolume(all, ref);
    phv_s += now_s() - t;
  }

  const std::vector<num::Vec> stepped = parmis.result().pareto_front();
  const exec::CellResult reference = run_reference_cell(cp->spec, opt.seed);
  out.ops(1, reference.error.empty() ? 0 : 1,
          "reference cell failed: " + reference.error);
  out.ops(cfg.max_iterations, 0, "");
  out.check(same_bits(stepped, reference.front),
            "step-wise front equals run_cell's front bit for bit");

  const double attributed = fit_s + hyperopt_s + rff_sample_s + nsga2_s +
                            acq_score_s + acq_refine_s + phv_s +
                            evaluate_in_steps_s;
  const double rff_ns = rff_calls > 0 ? rff_eval_s * 1e9 / rff_calls : 0.0;
  const double rff_features =
      static_cast<double>(cfg.acquisition.rff_features);

  out.metric("trace.cell_s", cell_wall, "s");
  out.metric("runtime.evaluate_s", evaluate_s, "s");
  out.metric("runtime.evaluations", static_cast<double>(evaluations), "count");
  out.metric("gp.fit_s", fit_s, "s");
  out.metric("gp.hyperopt_s", hyperopt_s, "s");
  out.metric("gp.rff_sample_s", rff_sample_s, "s");
  out.metric("moo.nsga2_s", nsga2_s, "s");
  out.metric("moo.nsga2_evals", static_cast<double>(nsga2_evals), "count");
  out.metric("gp.rff_eval_ns", rff_ns, "ns");
  out.metric("gp.rff_eval_gflops",
             rff_ns > 0.0 ? 2.0 * rff_features * static_cast<double>(d) /
                                rff_ns
                          : 0.0,
             "GFLOP/s-calc");
  out.metric("core.acq_score_s", acq_score_s, "s");
  out.metric("core.acq_score_us_per_candidate",
             scored > 0 ? acq_score_s * 1e6 / scored : 0.0, "us");
  out.metric("core.acq_refine_s", acq_refine_s, "s");
  out.metric("moo.phv_s", phv_s, "s");
  out.metric("core.step_s_p50", median(step_s), "s");
  out.metric("core.step_s_max", quantile(step_s, 1.0), "s");
  out.metric("core.attributed_share", attributed / sum(step_s), "ratio");
  out.note("theta_dim", std::to_string(d));
}

}  // namespace perfbench
