// Perf suite: the repo's one perf harness.  One binary, three entry
// points, one implementation of each probe:
//
//   perf_suite [--smoke] [--out=path] [--require-batched-faster]
//     writes the versioned scorecard (BENCH_perf.json, schema
//     `parmis-perf-v6`) so perf regressions show up as a diff at the
//     repo root: campaign cells/s, batched vs scalar acquisition
//     us/candidate (bit-identity asserted while timing), merge cells/s
//     and serve decisions/s/core with p50/p99.
//     --require-batched-faster exits 1 unless the batched acquisition
//     sweep beats the scalar loop (the CI perf gate).
//
//   perf_suite serve [--smoke] [--decisions=N] [--chunk-decisions=N]
//                    [--latency-samples=K] [--baseline=DPS] [--csv=path]
//     serve decide throughput and latency on one core, the held-snapshot
//     RCU and generation checks across a hot swap, and the obs-registry
//     check (the sampled decide histogram records in an instrumented
//     build and does not exist in a -DPARMIS_OBS=OFF one).  With
//     --baseline (an OBS=OFF run's decisions/s) the run fails if the
//     instrumented throughput falls more than 2% below it: the serve
//     path's instrumentation budget (docs/observability.md).
//
//   perf_suite campaign [--threads=N] [--seeds=K] [--full] [--csv=path]
//                       [--cache-dir=path]
//     the campaign layer's bitwise contracts: the full scenario suite at
//     1 vs N threads, an optional cache populate + replay, the
//     registry-driven method matrix, the merge digest and PHV bits, and
//     the intra-cell PHV with a pooled acquisition.
//
// Every timed probe uses bench::min_chunk_seconds (docs/perf.md).  A
// failed check exits 1.  An unknown subcommand or flag, or a size flag
// that is not a positive integer, exits 2 with one line on stderr.
// The JSON carries the budgets that produced each number: numbers from
// different budgets are not comparable; diff like against like.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "core/acquisition.hpp"
#include "core/policy_search.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "methods/builtin.hpp"
#include "methods/registry.hpp"
#include "obs/metrics.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "soc/decision.hpp"

namespace {

using namespace parmis;

// Fixed probe shapes.  Only the budgets (how much work is timed) are
// flags; the shapes are part of what a number means.
constexpr std::size_t kServeScenarios = 8;
constexpr std::size_t kServeFront = 12;
constexpr std::size_t kMergeCells = 10'000;
constexpr std::size_t kMergeShards = 16;
constexpr double kMaxServeOverheadPct = 2.0;

// --------------------------------------------------- synthetic report

/// The one synthetic campaign report, behind both the serve snapshot
/// and the merge probe.  Cell i belongs to scenario "synthetic-<i % S>"
/// and method methods[(i / S) % M]; the seed advances once per S * M
/// cells.  Each front is `front_points` time/energy trade-offs with
/// time strictly increasing and energy strictly decreasing, jittered by
/// a per-cell RNG, so every point survives a non-dominated filter.
/// `variant` shifts every objective and reseeds the jitter, so
/// successive installs are distinguishable.  The first method's cells
/// carry pareto_thetas and the highest PHV.
exec::CampaignReport synthetic_report(std::size_t scenarios,
                                      const std::vector<std::string>& methods,
                                      std::size_t cells,
                                      std::size_t front_points,
                                      std::uint64_t variant) {
  exec::CampaignReport report;
  report.campaign_hash = 0x5E7BE5E7ULL;
  report.total_cells = cells;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::size_t m = (i / scenarios) % methods.size();
    Rng rng(0x9E3779B97F4A7C15ULL * (variant + 1) + i);
    exec::CellResult cell;
    cell.scenario = "synthetic-" + std::to_string(i % scenarios);
    cell.platform = "synthetic";
    cell.method = methods[m];
    cell.seed = 1 + i / (scenarios * methods.size());
    cell.objective_names = {"time_s", "energy_j"};
    cell.num_apps = 2;
    cell.evaluations = front_points;
    const double offset = double(variant) + 0.5 * double(m);
    for (std::size_t p = 0; p < front_points; ++p) {
      const double t = offset + double(p) + 0.5 * rng.uniform();
      const double e = offset + double(front_points - p) + 0.5 * rng.uniform();
      cell.front.push_back({t, e});
      if (m == 0) cell.pareto_thetas.push_back({t * 0.1, e * 0.1});
    }
    cell.best_raw = {cell.front.front()[0], cell.front.back()[1]};
    cell.phv = 10.0 / double(m + 1);
    report.cells.push_back(std::move(cell));
  }
  return report;
}

/// The serve probes' snapshot source: kServeScenarios scenarios, each
/// with a parmis and a governor entry of kServeFront points.
exec::CampaignReport serve_report(std::uint64_t variant) {
  return synthetic_report(kServeScenarios, {"parmis", "governor"},
                          2 * kServeScenarios, kServeFront, variant);
}

/// The request mix one serving core sees: every built-in mode, an
/// explicit weight vector, and an "auto" dispatch, over every scenario.
std::vector<serve::DecideRequest> request_mix() {
  std::vector<serve::DecideRequest> requests;
  for (std::size_t s = 0; s < kServeScenarios; ++s) {
    const std::string scenario = "synthetic-" + std::to_string(s);
    for (const char* mode :
         {"balanced", "performance", "powersave", "thermal-critical"}) {
      serve::DecideRequest req;
      req.scenario = scenario;
      req.mode = mode;
      requests.push_back(std::move(req));
    }
    serve::DecideRequest weighted;
    weighted.scenario = scenario;
    weighted.weights = {{"time_s", 2.0}, {"energy_j", 5.0}};
    requests.push_back(std::move(weighted));
    serve::DecideRequest autos;
    autos.scenario = scenario;
    autos.mode = "auto";
    autos.workload.battery_pct = 15.0;
    requests.push_back(std::move(autos));
  }
  return requests;
}

// -------------------------------------------------------- decide timer

struct ServeBudget {
  std::size_t decisions = 0;
  std::size_t chunk_decisions = 0;
  std::size_t latency_samples = 0;
};

ServeBudget serve_budget(bool smoke) {
  return smoke ? ServeBudget{200'000, 50'000, 20'000}
               : ServeBudget{4'000'000, 500'000, 200'000};
}

struct ServeNumbers {
  double decisions_per_s_per_core = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t chunks = 0;
  std::size_t checksum = 0;  ///< sum of chosen indices: keeps the work live
};

/// The one decide timer: single-thread decide_on() cycling `mix` on
/// one held snapshot.  Throughput is min-of-chunks over
/// decisions / chunk_decisions chunks; the latency quantiles come from
/// individually clocked calls.
ServeNumbers time_decisions(const serve::PolicyServer& server,
                            const serve::Snapshot& snapshot,
                            const std::vector<serve::DecideRequest>& mix,
                            const ServeBudget& budget) {
  ServeNumbers numbers;
  numbers.chunks = budget.decisions / budget.chunk_decisions;
  const double chunk_s =
      bench::min_chunk_seconds(numbers.chunks, [&](std::size_t) {
        for (std::size_t i = 0; i < budget.chunk_decisions; ++i) {
          numbers.checksum +=
              server.decide_on(snapshot, mix[i % mix.size()]).index;
        }
      });
  numbers.decisions_per_s_per_core = double(budget.chunk_decisions) / chunk_s;

  std::vector<double> micros(budget.latency_samples);
  for (std::size_t i = 0; i < micros.size(); ++i) {
    const Stopwatch one;
    numbers.checksum += server.decide_on(snapshot, mix[i % mix.size()]).index;
    micros[i] = one.micros();
  }
  std::sort(micros.begin(), micros.end());
  numbers.p50_us = micros[micros.size() / 2];
  numbers.p99_us = micros[(micros.size() * 99) / 100];
  return numbers;
}

// --------------------------------------------------------- merge probe

struct MergeNumbers {
  double write_s = 0.0;
  double merge_s = 0.0;  ///< load + merge of every shard file
  std::uintmax_t bytes = 0;
  bool ok = false;  ///< merged digest and every PHV bit matched
};

/// The one merge probe: synthesizes `cells` cells, slices them into
/// `shards` shard files exactly like independent runners would, loads
/// and merges them back, then checks the merged digest and every
/// globally recomputed PHV bit against the directly assembled campaign.
/// Shard files go to a per-process scratch directory, so concurrent
/// runs never delete each other's shards.
MergeNumbers merge_probe(std::size_t cells, std::size_t shards) {
  exec::CampaignReport full = synthetic_report(
      4, {"parmis", "governor", "rl", "il", "dypo"}, cells, 8, 0);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("parmis_merge_bench." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  MergeNumbers numbers;
  const Stopwatch write_wall;
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards; ++s) {
    exec::CampaignReport shard;
    shard.campaign_hash = full.campaign_hash;
    shard.total_cells = cells;
    shard.shard = exec::ShardSpec{s, shards};
    const auto [begin, end] = exec::shard_range(cells, shard.shard);
    shard.cells.assign(full.cells.begin() + begin, full.cells.begin() + end);
    paths.push_back((dir / ("shard_" + std::to_string(s) + ".json")).string());
    report::save_report(paths.back(), shard);
  }
  numbers.write_s = write_wall.seconds();
  for (const auto& p : paths) numbers.bytes += std::filesystem::file_size(p);

  const Stopwatch merge_wall;
  std::vector<exec::CampaignReport> loaded;
  for (const auto& p : paths) loaded.push_back(report::load_report(p));
  const exec::CampaignReport merged = report::merge(std::move(loaded));
  numbers.merge_s = merge_wall.seconds();
  std::filesystem::remove_all(dir);

  // The digest excludes PHV, so the recomputed PHV doubles are compared
  // explicitly against a direct aggregation of the full cell list.
  report::assign_global_phv(full);
  numbers.ok = merged.objectives_digest() == full.objectives_digest() &&
               merged.cells.size() == full.cells.size();
  for (std::size_t i = 0; numbers.ok && i < full.cells.size(); ++i) {
    numbers.ok = merged.cells[i].phv == full.cells[i].phv;
  }
  if (!numbers.ok) std::cerr << "FATAL: merged digest or PHV MISMATCH\n";
  return numbers;
}

// ------------------------------------------------------------ scorecard

/// Cells/sec of the parallel campaign runner on governor-only cells of
/// the synthetic scenario: measures the runner's per-cell machinery
/// (platform build, evaluation, aggregation), not learning cost.
double campaign_cells_per_s(bool smoke, json::Value* budget) {
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  config.scenarios[0].methods = {"performance", "powersave", "ondemand"};
  config.seeds_per_cell = smoke ? 2 : 8;
  const Stopwatch wall;
  const exec::CampaignReport report = exec::CampaignRunner(config).run();
  const double seconds = wall.seconds();
  budget->set("cells", json::Value::number(double(report.cells.size())));
  return double(report.cells.size()) / seconds;
}

/// Microseconds per candidate theta for one iteration's acquisition
/// object (built once, evaluated many times — the PaRMIS inner loop),
/// measured through the batched values() sweep AND the scalar
/// per-candidate value() loop on the same queries, with bit-equivalence
/// checked between the two while we are at it.  The GP size is a late
/// xu3 PaRMIS iteration: 112 evaluated thetas of dimension 445.
struct AcquisitionNumbers {
  double batched_us_per_candidate = 0.0;
  double scalar_us_per_candidate = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

AcquisitionNumbers acquisition_us_per_candidate(bool smoke,
                                                json::Value* budget) {
  const std::size_t n = 112, d = 445;
  const std::size_t block = 256;  // candidates per batched sweep
  const std::size_t chunks = smoke ? 2 : 20;
  const std::size_t candidates = chunks * block;
  Rng rng(7);
  num::Matrix X(n, d);
  num::Vec y0(n), y1(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.uniform(-2, 2);
      s += X(i, c);
    }
    y0[i] = std::sin(s) + 0.01 * rng.normal();
    y1[i] = std::cos(s) + 0.01 * rng.normal();
  }
  std::vector<gp::GpRegressor> models;
  for (const num::Vec* y : {&y0, &y1}) {
    models.emplace_back(gp::make_kernel("rbf", std::sqrt(double(d))), 1e-4);
    models.back().set_data(X, *y);
  }
  const num::Vec lo(d, -2.0), hi(d, 2.0);
  core::AcquisitionConfig config;
  config.rff_features = 64;
  config.front_sampler.population_size = 16;
  config.front_sampler.generations = 10;
  const core::InformationGainAcquisition acq(models, lo, hi, config, rng);

  // Chunks are materialized before the clock starts: the probe times
  // the values() sweep, not std::vector bookkeeping.
  std::vector<std::vector<num::Vec>> queries(chunks,
                                             std::vector<num::Vec>(block));
  for (auto& chunk : queries)
    for (auto& q : chunk) {
      q.resize(d);
      for (auto& v : q) v = rng.uniform(-2, 2);
    }

  // Both paths use the same min-of-chunks estimator over the same
  // 256-candidate chunks, so the speedup ratio is fair.  Batched: one
  // values() sweep per chunk (the production path behind
  // Parmis::maximize_acquisition).  Scalar: the per-candidate loop the
  // batched backend replaced.
  std::vector<double> batched(candidates), scalar(candidates);
  AcquisitionNumbers numbers;
  numbers.batched_us_per_candidate =
      bench::min_chunk_seconds(chunks, [&](std::size_t c) {
        const std::vector<double> scores = acq.values(queries[c]);
        std::copy(scores.begin(), scores.end(), batched.begin() + c * block);
      }) * 1e6 / double(block);
  numbers.scalar_us_per_candidate =
      bench::min_chunk_seconds(chunks, [&](std::size_t c) {
        for (std::size_t i = 0; i < block; ++i) {
          scalar[c * block + i] = acq.value(queries[c][i]);
        }
      }) * 1e6 / double(block);
  numbers.speedup =
      numbers.scalar_us_per_candidate / numbers.batched_us_per_candidate;
  numbers.bit_identical =
      std::memcmp(batched.data(), scalar.data(),
                  candidates * sizeof(double)) == 0;
  if (!numbers.bit_identical) {
    std::cerr << "acquisition batched/scalar scores DIVERGED — "
                 "the GP layer broke the bit-equivalence contract\n";
  }
  budget->set("candidates", json::Value::number(double(candidates)));
  budget->set("candidates_per_block", json::Value::number(double(block)));
  budget->set("gp_points", json::Value::number(double(n)));
  budget->set("theta_dim", json::Value::number(double(d)));
  return numbers;
}

int run_scorecard(const CliArgs& args) {
  require_known_flags(args, {"smoke", "out", "require-batched-faster"});
  const bool smoke = args.get_bool("smoke", false);
  const bool gate = args.get_bool("require-batched-faster", false);
  const std::string out = args.get("out", "BENCH_perf.json");

  std::cerr << "perf suite (" << (smoke ? "smoke" : "default")
            << " budgets)...\n";
  json::Value budgets = json::Value::object();
  json::Value metrics = json::Value::object();

  json::Value campaign_budget = json::Value::object();
  const double cells_s = campaign_cells_per_s(smoke, &campaign_budget);
  std::cerr << "  campaign      " << cells_s << " cells/s\n";

  json::Value acq_budget = json::Value::object();
  const AcquisitionNumbers acq =
      acquisition_us_per_candidate(smoke, &acq_budget);
  std::cerr << "  acquisition   " << acq.batched_us_per_candidate
            << " us/candidate batched, " << acq.scalar_us_per_candidate
            << " scalar (" << acq.speedup << "x, "
            << (acq.bit_identical ? "bit-identical" : "DIVERGED") << ")\n";

  const std::size_t merge_cells = smoke ? 2'000 : kMergeCells;
  const MergeNumbers merge = merge_probe(merge_cells, kMergeShards);
  const double merge_rate = double(merge_cells) / merge.merge_s;
  std::cerr << "  merge         " << merge_rate << " cells/s\n";
  json::Value merge_budget = json::Value::object();
  merge_budget.set("cells", json::Value::number(double(merge_cells)));
  merge_budget.set("shards", json::Value::number(double(kMergeShards)));

  serve::PolicyStore store;
  store.build_and_install({serve_report(1)}, {"synthetic"});
  const ServeBudget sb = serve_budget(smoke);
  const ServeNumbers serve =
      time_decisions(serve::PolicyServer(store), *store.require_snapshot(),
                     request_mix(), sb);
  std::cerr << "  serve         " << serve.decisions_per_s_per_core
            << " decisions/s/core, p50 " << serve.p50_us << " us, p99 "
            << serve.p99_us << " us (checksum " << serve.checksum << ")\n";
  json::Value serve_budget_json = json::Value::object();
  serve_budget_json.set("decisions", json::Value::number(double(sb.decisions)));
  serve_budget_json.set("chunk_decisions",
                        json::Value::number(double(sb.chunk_decisions)));
  serve_budget_json.set("latency_samples",
                        json::Value::number(double(sb.latency_samples)));
  serve_budget_json.set("scenarios",
                        json::Value::number(double(kServeScenarios)));

  metrics.set("campaign_cells_per_s", json::Value::number(cells_s));
  metrics.set("acquisition_us_per_candidate",
              json::Value::number(acq.batched_us_per_candidate));
  metrics.set("acquisition_scalar_us_per_candidate",
              json::Value::number(acq.scalar_us_per_candidate));
  metrics.set("acquisition_batched_speedup",
              json::Value::number(acq.speedup));
  metrics.set("merge_cells_per_s", json::Value::number(merge_rate));
  metrics.set("serve_decisions_per_s_per_core",
              json::Value::number(serve.decisions_per_s_per_core));
  metrics.set("serve_latency_p50_us", json::Value::number(serve.p50_us));
  metrics.set("serve_latency_p99_us", json::Value::number(serve.p99_us));
  budgets.set("campaign", std::move(campaign_budget));
  budgets.set("acquisition", std::move(acq_budget));
  budgets.set("merge", std::move(merge_budget));
  budgets.set("serve", std::move(serve_budget_json));

  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string("parmis-perf-v6"));
  doc.set("smoke", json::Value::boolean(smoke));
  doc.set("metrics", std::move(metrics));
  doc.set("budgets", std::move(budgets));
  std::ofstream os(out, std::ios::binary);
  os << json::dump(doc);
  if (!os) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cerr << "wrote " << out << "\n";
  if (!acq.bit_identical || !merge.ok) return 1;
  if (gate && acq.speedup <= 1.0) {
    std::cerr << "--require-batched-faster: batched sweep ("
              << acq.batched_us_per_candidate
              << " us/candidate) is not faster than the scalar loop ("
              << acq.scalar_us_per_candidate << ")\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- serve

int run_serve(const CliArgs& args) {
  require_known_flags(args, {"smoke", "decisions", "chunk-decisions",
                             "latency-samples", "baseline", "csv"});
  ServeBudget budget = serve_budget(args.get_bool("smoke", false));
  budget.decisions = args.get_count("decisions", budget.decisions, 1);
  budget.chunk_decisions =
      args.get_count("chunk-decisions", budget.chunk_decisions, 1);
  budget.latency_samples =
      args.get_count("latency-samples", budget.latency_samples, 1);
  require(budget.chunk_decisions <= budget.decisions,
          "--chunk-decisions must not exceed --decisions");
  const double baseline = args.get_double("baseline", 0.0);
  require(std::isfinite(baseline) && baseline >= 0.0,
          "--baseline expects a non-negative decisions/s figure");

#ifdef PARMIS_OBS_ENABLED
  const bool instrumented = true;
#else
  const bool instrumented = false;
#endif

  serve::PolicyStore store;
  store.build_and_install({serve_report(1)}, {"synthetic"});
  const serve::PolicyServer server(store);
  const std::vector<serve::DecideRequest> mix = request_mix();
  std::cout << "serve: " << kServeScenarios << " scenarios x 2 methods, "
            << kServeFront << "-point fronts, " << mix.size()
            << "-request mix, obs "
            << (instrumented ? "instrumented" : "compiled out") << "\n\n";

  const auto snapshot = store.require_snapshot();
  const ServeNumbers numbers = time_decisions(server, *snapshot, mix, budget);

  // Hot swap: the writer-side cost of a replacement install, and the
  // RCU contract — the snapshot held above keeps answering identically.
  const std::size_t held_index = server.decide_on(*snapshot, mix[0]).index;
  const Stopwatch swap_wall;
  store.build_and_install({serve_report(2)}, {"synthetic-v2"});
  const double swap_us = swap_wall.micros();
  if (server.decide_on(*snapshot, mix[0]).index != held_index) {
    std::cerr << "FATAL: hot swap changed a held snapshot's decision\n";
    return 1;
  }
  if (store.require_snapshot()->generation != snapshot->generation + 1) {
    std::cerr << "FATAL: install did not advance the generation\n";
    return 1;
  }

  // The sampled decide histogram must have recorded in an instrumented
  // build; compiled out, the registry must not know the metric at all.
  // Either failure means the instrumentation macros and the build flags
  // disagree.
  const obs::Histogram* decide_histo =
      obs::Registry::instance().find_histogram("parmis_serve_decide_ns");
  if (instrumented && (decide_histo == nullptr || decide_histo->count() == 0)) {
    std::cerr << "FATAL: instrumented build recorded no samples in "
                 "parmis_serve_decide_ns\n";
    return 1;
  }
  if (!instrumented && decide_histo != nullptr) {
    std::cerr << "FATAL: obs-off build registered parmis_serve_decide_ns\n";
    return 1;
  }

  Table table({"metric", "value", "unit"});
  table.begin_row()
      .add("decisions/sec/core")
      .add(numbers.decisions_per_s_per_core, 0)
      .add("1/s");
  table.begin_row().add("latency p50").add(numbers.p50_us, 3).add("us");
  table.begin_row().add("latency p99").add(numbers.p99_us, 3).add("us");
  table.begin_row().add("hot-swap install").add(swap_us, 1).add("us");
  table.begin_row()
      .add("throughput chunks")
      .add(double(numbers.chunks), 0)
      .add("x " + std::to_string(budget.chunk_decisions));
  table.print(std::cout);
  if (const std::string csv = args.get("csv", ""); !csv.empty()) {
    table.save_csv(csv);
  }
  std::cout << "\nchecksum " << numbers.checksum << "\n";

  if (baseline > 0.0) {
    const double overhead_pct =
        (baseline - numbers.decisions_per_s_per_core) / baseline * 100.0;
    std::cout << "overhead vs baseline " << format_double(baseline, 0)
              << " dec/s: " << format_double(overhead_pct, 2) << "% (budget "
              << format_double(kMaxServeOverheadPct, 2) << "%)\n";
    if (overhead_pct > kMaxServeOverheadPct) {
      std::cerr << "FATAL: serve overhead " << format_double(overhead_pct, 2)
                << "% exceeds the " << format_double(kMaxServeOverheadPct, 2)
                << "% budget\n";
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------- campaign

/// Intra-cell probe: one PaRMIS run on the 12-app global scenario with
/// acquisition scoring wired through a pool of `threads`, returning
/// (wall seconds, PHV of the final front).
std::pair<double, double> intra_cell_run(std::size_t threads) {
  exec::ThreadPool pool(threads);
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-all12-te");
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
  soc::Platform platform(soc_spec, spec.platform_config);
  core::DrmPolicyProblem problem(platform, scenario::make_applications(spec),
                                 scenario::make_objectives(spec), {},
                                 scenario::make_evaluator_config(spec));
  core::ParmisConfig config = spec.parmis;
  config.pool = &pool;
  auto anchors = problem.anchor_thetas();
  anchors.resize(3);
  config.initial_thetas = std::move(anchors);
  core::Parmis parmis(problem.evaluation_fn(), problem.theta_dim(),
                      problem.num_objectives(), config);
  const Stopwatch wall;
  const core::ParmisResult result = parmis.run();
  return {wall.seconds(),
          result.phv_history.empty() ? 0.0 : result.phv_history.back()};
}

/// One tiny time/energy scenario per platform variant, its method list
/// drawn live from the registry (every method whose capabilities admit
/// the scenario's objectives and the platform's decision space).
exec::CampaignConfig registry_matrix_campaign(std::size_t threads) {
  exec::CampaignConfig config;
  for (const std::string platform :
       {"exynos5422", "manycore16", "mobile3"}) {
    scenario::ScenarioSpec spec =
        scenario::make_scenario("xu3-synthetic-te");
    spec.name = "matrix-" + platform;
    spec.platform = platform;
    spec.generated->num_apps = 2;
    spec.methods.clear();
    const std::size_t space =
        soc::DecisionSpace(soc::SocSpec::by_name(platform)).size();
    const methods::MethodRegistry& registry =
        methods::MethodRegistry::instance();
    for (const auto& name : registry.names()) {
      const methods::MethodCapabilities caps =
          registry.get(name).capabilities();
      if (!caps.supports_all(spec.objectives)) continue;
      if (caps.max_decision_space != 0 &&
          space > caps.max_decision_space) {
        continue;
      }
      spec.methods.push_back(name);
    }
    config.scenarios.push_back(std::move(spec));
  }
  // Tiny learned-baseline budgets so the matrix stays a probe.
  auto rl = std::make_shared<methods::RlMethodConfig>();
  rl->grid_divisions = 2;
  rl->episodes = 4;
  auto il = std::make_shared<methods::IlMethodConfig>();
  il->grid_divisions = 2;
  il->dagger_rounds = 0;
  il->training_passes = 4;
  auto dypo = std::make_shared<methods::DypoMethodConfig>();
  dypo->grid_divisions = 2;
  dypo->num_clusters = 2;
  config.method_configs.set("rl", rl);
  config.method_configs.set("il", il);
  config.method_configs.set("dypo", dypo);
  config.anchor_limit = 1;
  config.num_threads = threads;
  return config;
}

/// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  struct rusage usage{};
  return getrusage(RUSAGE_SELF, &usage) == 0
             ? static_cast<double>(usage.ru_maxrss) / 1024.0
             : 0.0;
}

int run_campaign(const CliArgs& args) {
  require_known_flags(args, {"threads", "seeds", "full", "csv", "cache-dir"});
  const std::size_t threads =
      args.get_count("threads", exec::default_num_threads(), 1);
  exec::CampaignConfig config;
  config.scenarios = scenario::all_scenarios();
  if (full_scale_requested(args)) {
    for (auto& s : config.scenarios) {
      s.parmis = scenario::campaign_parmis_budget(true);
    }
  }
  config.seeds_per_cell = args.get_count("seeds", 1, 1);

  std::cout << "campaign: " << config.scenarios.size() << " scenarios, "
            << config.seeds_per_cell << " seed(s) per cell\n\n";

  config.num_threads = 1;
  const exec::CampaignReport reference = exec::CampaignRunner(config).run();
  config.num_threads = threads;
  const exec::CampaignReport parallel = exec::CampaignRunner(config).run();
  const bool identical =
      reference.objectives_digest() == parallel.objectives_digest();

  // Per-scenario PHV by method (seed 1 of each cell).
  Table phv_table({"scenario", "method", "phv", "front", "wall_s"});
  for (const auto& cell : parallel.cells) {
    if (cell.seed != 1) continue;
    phv_table.begin_row()
        .add(cell.scenario)
        .add(cell.method)
        .add(cell.phv, 4)
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.wall_s, 3);
  }
  phv_table.print(std::cout);
  if (const std::string csv = args.get("csv", ""); !csv.empty()) {
    parallel.save_csv(csv);
  }
  std::cout << "\ndeterminism: "
            << (identical ? "bitwise-identical objectives at 1 vs "
                          : "DIGEST MISMATCH at 1 vs ")
            << threads << " threads\n"
            << "campaign wall: 1 thread "
            << format_double(reference.wall_s, 3) << " s, " << threads
            << " threads " << format_double(parallel.wall_s, 3)
            << " s, speedup "
            << format_double(parallel.wall_s > 0.0
                                 ? reference.wall_s / parallel.wall_s
                                 : 0.0,
                             2)
            << "x\n";

  bool cache_ok = true;
  if (const std::string dir = args.get("cache-dir", ""); !dir.empty()) {
    // Populate from the parallel run's cells, then replay the whole
    // suite from disk.  A reused --cache-dir serves part of the
    // populate pass from prior entries; its hit count is reported so
    // the compute time is read honestly.
    cache::ResultCache cache(dir);
    config.cache = &cache;
    const Stopwatch populate_wall;
    const exec::CampaignReport populated = exec::CampaignRunner(config).run();
    const double populate_s = populate_wall.seconds();
    const Stopwatch replay_wall;
    const exec::CampaignReport replayed = exec::CampaignRunner(config).run();
    const double replay_s = replay_wall.seconds();
    config.cache = nullptr;
    cache_ok = replayed.cache_hits == replayed.cells.size() &&
               replayed.objectives_digest() == parallel.objectives_digest();
    std::cout << "\ncache: " << cache.num_entries() << " entries ("
              << cache.total_bytes() << " bytes), replay "
              << replayed.cache_hits << "/" << replayed.cells.size()
              << " hits, compute " << format_double(populate_s, 3) << " s ("
              << populated.cache_hits << " pre-cached) vs replay "
              << format_double(replay_s, 3)
              << " s, digest match: " << (cache_ok ? "bitwise" : "MISMATCH")
              << "\n";
  }

  // Registry-driven method matrix.  Pass requires every cell to succeed
  // AND digest equality: a method that deterministically errors would
  // otherwise match its own broken digest at both thread counts.
  const exec::CampaignReport matrix_serial =
      exec::CampaignRunner(registry_matrix_campaign(1)).run();
  const exec::CampaignReport matrix_parallel =
      exec::CampaignRunner(registry_matrix_campaign(threads)).run();
  bool matrix_ok = matrix_serial.objectives_digest() ==
                   matrix_parallel.objectives_digest();
  Table matrix_table({"scenario", "method", "phv", "front", "wall_s"});
  for (const auto& cell : matrix_parallel.cells) {
    matrix_ok = matrix_ok && cell.error.empty();
    matrix_table.begin_row()
        .add(cell.scenario)
        .add(cell.error.empty() ? cell.method : cell.method + " FAILED")
        .add(cell.phv, 4)
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.wall_s, 3);
  }
  std::cout << "\nmethod matrix ("
            << methods::MethodRegistry::instance().names().size()
            << " registered methods, capability-filtered per platform):\n";
  matrix_table.print(std::cout);
  std::cout << "matrix determinism: "
            << (matrix_ok ? "bitwise-identical objectives"
                          : "DIGEST MISMATCH")
            << " at 1 vs " << threads << " threads, "
            << matrix_parallel.cells.size() << " cells in "
            << format_double(matrix_parallel.wall_s, 3) << " s\n";

  const MergeNumbers merge = merge_probe(kMergeCells, kMergeShards);
  std::cout << "\nmerge scale: " << kMergeCells << " cells / " << kMergeShards
            << " shards (" << merge.bytes / (1024 * 1024) << " MiB), write "
            << format_double(merge.write_s, 3) << " s, load+merge "
            << format_double(merge.merge_s, 3) << " s ("
            << format_double(double(kMergeCells) / merge.merge_s, 0)
            << " cells/s), peak RSS " << format_double(peak_rss_mib(), 1)
            << " MiB, digest match: " << (merge.ok ? "bitwise" : "MISMATCH")
            << "\n";

  const auto [serial_s, serial_phv] = intra_cell_run(1);
  const auto [pooled_s, pooled_phv] = intra_cell_run(threads);
  std::cout << "intra-cell (12-app global, pooled acquisition): "
            << "1 thread " << format_double(serial_s, 3) << " s, " << threads
            << " threads " << format_double(pooled_s, 3) << " s, speedup "
            << format_double(pooled_s > 0.0 ? serial_s / pooled_s : 0.0, 2)
            << "x, PHV match: "
            << (serial_phv == pooled_phv ? "bitwise" : "MISMATCH") << "\n";

  return identical && cache_ok && matrix_ok && merge.ok &&
                 serial_phv == pooled_phv
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // A subcommand, when given, is the first argument; the flags follow.
    const bool has_sub = argc > 1 && std::string(argv[1]).rfind("--", 0) != 0;
    const std::string sub = has_sub ? argv[1] : "";
    const CliArgs args =
        CliArgs::parse(has_sub ? argc - 1 : argc, has_sub ? argv + 1 : argv);
    if (sub.empty()) return run_scorecard(args);
    if (sub == "serve") return run_serve(args);
    if (sub == "campaign") return run_campaign(args);
    require(false, "unknown subcommand '" + sub +
                       "' (expected serve or campaign)");
  } catch (const Error& e) {
    std::cerr << "perf_suite: " << e.what() << "\n";
    return 2;
  }
  return 2;
}
