// campaign-launch: orchestrate::JobRunner over ProcessBackend (the
// campaign-launch path) on the seeded method-matrix plan, 2 workers and
// 32 chunks.  Each round launches cold into an empty cache and then
// replays the plan warm against the filled cache.
//
// Every chunk goes through TimedBackend, a ChunkBackend decorator that
// records the chunk's wall time, outcome and report; the traced run
// derives the orchestration, cache, report and per-method numbers from
// those records and from in-process calls on the same data.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "baselines/il.hpp"
#include "bench.hpp"
#include "cache/result_cache.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "exec/campaign.hpp"
#include "methods/registry.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/scheduler.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "scenario/scenario.hpp"
#include "serde/plan.hpp"

namespace perfbench {

namespace {

namespace exec = parmis::exec;
namespace orch = parmis::orchestrate;
namespace report = parmis::report;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWarmPerCold = 3;

class TimedBackend final : public orch::ChunkBackend {
 public:
  struct Record {
    double wall_s = 0.0;
    double child_wall_s = 0.0;  ///< the chunk report's own wall clock
    bool ok = false;
    std::size_t cells = 0;
    std::size_t cache_hits = 0;
  };

  TimedBackend(orch::ChunkBackend& inner, bool keep_reports)
      : inner_(inner), keep_reports_(keep_reports) {}

  orch::ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                               std::size_t attempt,
                               const std::atomic<bool>& abort) override {
    const double t0 = now_s();
    orch::ChunkOutcome outcome =
        inner_.run_chunk(index, count, attempt, abort);
    Record rec;
    rec.wall_s = now_s() - t0;
    rec.child_wall_s = outcome.report.wall_s;
    rec.ok = outcome.ok;
    rec.cells = outcome.report.cells.size();
    rec.cache_hits = outcome.report.cache_hits;
    const std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(rec);
    if (keep_reports_ && outcome.ok) reports_.push_back(outcome.report);
    return outcome;
  }

  std::vector<Record> records() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }
  /// Successful chunk reports in completion order (keep_reports only).
  std::vector<exec::CampaignReport> reports() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reports_;
  }

 private:
  orch::ChunkBackend& inner_;
  const bool keep_reports_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::vector<exec::CampaignReport> reports_;
};

/// Every thread of every child process (the campaign workers), with
/// the child's index as its CpuRotator slot.  A chunk runs for up to
/// seconds in one process, and on a slow core it alone would set the
/// job's time (see CpuRotation).
std::vector<std::pair<pid_t, std::size_t>> worker_threads() {
  std::vector<pid_t> kids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    const std::size_t close = stat.rfind(')');
    int ppid = 0;
    if (close != std::string::npos &&
        std::sscanf(stat.c_str() + close + 1, " %*c %d", &ppid) == 1 &&
        ppid == getpid()) {
      kids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  std::sort(kids.begin(), kids.end());
  std::vector<std::pair<pid_t, std::size_t>> out;
  for (std::size_t i = 0; i < kids.size(); ++i) {
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(kids[i]) + "/task", ec)) {
      out.emplace_back(
          static_cast<pid_t>(std::stol(task.path().filename().string())), i);
    }
  }
  return out;
}

struct Launch {
  bool ok = false;
  std::string error;
  exec::CampaignReport report;
  double wall_s = 0.0;
  std::vector<TimedBackend::Record> records;
  std::vector<exec::CampaignReport> chunk_reports;
  orch::LeaseTableStats stats;
};

orch::ProcessBackend::Config backend_config(const Options& opt,
                                            const std::string& plan_path,
                                            const std::string& cache_dir,
                                            const std::string& job_dir) {
  orch::ProcessBackend::Config cfg;
  cfg.campaign_bin = opt.campaign_bin;
  cfg.plan_path = plan_path;
  cfg.work_dir = job_dir;
  cfg.cache_dir = cache_dir;
  cfg.threads = 1;
  return cfg;
}

Launch launch(const Options& opt, const std::string& plan_path,
              const std::string& cache_dir, const std::string& job_dir,
              bool keep_reports) {
  parmis::make_directories(job_dir);
  orch::ProcessBackend backend(
      backend_config(opt, plan_path, cache_dir, job_dir));
  TimedBackend timed(backend, keep_reports);
  orch::JobConfig jc;
  jc.workers = kWorkers;
  jc.chunks = opt.smoke ? 4 : 32;
  orch::JobRunner runner(timed, jc);
  Launch out;
  {
    const CpuRotator rotator(std::chrono::milliseconds(100), worker_threads);
    const double t0 = now_s();
    try {
      out.report = runner.run();
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.wall_s = now_s() - t0;
  }
  out.records = timed.records();
  out.chunk_reports = timed.reports();
  out.stats = runner.progress().stats;
  return out;
}

/// Counts the launch's chunk attempts and cells into `out`; true when
/// the job finished with every cell computed.
bool account(const Launch& l, std::size_t total_cells, Result& out) {
  std::size_t bad_chunks = 0;
  for (const auto& r : l.records) bad_chunks += r.ok ? 0 : 1;
  out.ops(l.records.size(), bad_chunks, "chunk attempt failed");
  std::size_t bad_cells = 0;
  for (const auto& c : l.report.cells) bad_cells += c.error.empty() ? 0 : 1;
  const bool complete = l.ok && l.report.cells.size() == total_cells;
  out.ops(total_cells,
          complete ? bad_cells : total_cells,
          "launch incomplete: " + l.error);
  return complete && bad_cells == 0;
}

double hit_ratio(const Launch& l) {
  std::size_t hits = 0, cells = 0;
  for (const auto& r : l.records) {
    if (!r.ok) continue;
    hits += r.cache_hits;
    cells += r.cells;
  }
  return cells > 0 ? static_cast<double>(hits) / cells : 0.0;
}

double mean_phv(const exec::CampaignReport& r) {
  double s = 0.0;
  for (const auto& c : r.cells) s += normalized_phv(c.front);
  return r.cells.empty() ? 0.0 : s / r.cells.size();
}

std::size_t plan_cells(const std::string& plan_path) {
  const parmis::serde::CampaignPlan plan =
      parmis::serde::load_plan(plan_path);
  const exec::CampaignConfig cfg = parmis::serde::to_campaign_config(
      plan, parmis::serde::ScenarioCatalogue());
  std::size_t n = 0;
  for (const auto& s : cfg.scenarios) n += s.methods.size();
  return n * cfg.seeds_per_cell;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

void run_launch_workload(const Options& opt, Result& out) {
  const std::string plan_path = write_seeded_plan(opt);
  const std::string root = opt.work_dir + "/launch";
  const std::size_t total = plan_cells(plan_path);

  // Set-up: plan load, scenario resolution and backend construction.
  const auto setup = [&] {
    const parmis::serde::CampaignPlan plan =
        parmis::serde::load_plan(plan_path);
    (void)parmis::serde::to_campaign_config(
        plan, parmis::serde::ScenarioCatalogue());
    orch::ProcessBackend backend(
        backend_config(opt, plan_path, root + "/cache", root + "/job"));
  };

  std::vector<double> cold_s, warm_s, straggler_ms;
  PerCpuSamples setup_s(CpuRotation().size());
  std::set<std::uint64_t> digests;
  double phv = 0.0;
  std::string cache_dir;
  const double start = now_s();
  for (std::size_t round = 0;; ++round) {
    time_reps_on_every_cpu(5, setup_s, setup);  // sampled every round
    const double round_t0 = now_s();
    if (!cache_dir.empty()) remove_tree(cache_dir);
    cache_dir = root + "/cache-" + std::to_string(round);
    const std::string job = root + "/job-" + std::to_string(round);
    const Launch cold = launch(opt, plan_path, cache_dir, job + "-cold", false);
    cold_s.push_back(cold.wall_s);
    double slowest_ms = 0.0;
    for (const auto& r : cold.records) {
      slowest_ms = std::max(slowest_ms, r.wall_s * 1e3);
    }
    straggler_ms.push_back(slowest_ms);
    if (account(cold, total, out)) {
      digests.insert(cold.report.objectives_digest());
      if (round == 0) phv = mean_phv(cold.report);
    }
    for (std::size_t w = 0; w < kWarmPerCold; ++w) {
      const Launch warm = launch(opt, plan_path, cache_dir,
                                 job + "-warm" + std::to_string(w), false);
      warm_s.push_back(warm.wall_s);
      if (account(warm, total, out)) {
        digests.insert(warm.report.objectives_digest());
      }
      out.check(hit_ratio(warm) == 1.0, "warm launch hit ratio is 1");
    }
    remove_tree(job + "-cold");
    for (std::size_t w = 0; w < kWarmPerCold; ++w) {
      remove_tree(job + "-warm" + std::to_string(w));
    }
    const double round_s = now_s() - round_t0;
    if (now_s() - start + round_s > opt.seconds) break;
  }

  // The launched digest must equal a single-process replay of the plan
  // over the warm cache.
  const std::string replay = root + "/replay.json";
  run_campaign_cli(opt, plan_path, replay,
                   {"--require-cached=1", "--cache-dir=" + cache_dir,
                    "--threads=1"});
  digests.insert(report::load_report(replay).objectives_digest());
  out.check(digests.size() == 1,
            "launch digests agree across launches and with the "
            "single-process replay");

  out.metric("job_s", median(cold_s), "s");
  out.metric("replay_ms", median(warm_s) * 1e3, "ms");
  out.metric("tail_ms", median(straggler_ms), "ms");
  out.metric("front_phv", phv, "ratio");
  out.metric("setup_s", setup_s.value(), "s");
  out.metric("peak_rss_mb", peak_rss_mb(true), "MiB");
  out.note("cells", std::to_string(total));
  out.note("cold_cells_per_s", std::to_string(total / median(cold_s)));
  out.note("warm_cells_per_s", std::to_string(total / median(warm_s)));
  out.note("cold_launches", std::to_string(cold_s.size()));
  out.note("warm_launches", std::to_string(warm_s.size()));
  if (!digests.empty()) {
    out.note("digest", parmis::hex64(*digests.begin()));
  }
}

void trace_launch(const Options& opt, Result& out,
                  const std::string& report_path) {
  const std::string plan_path = write_seeded_plan(opt);
  const std::string root = opt.work_dir + "/traced-launch";
  const std::size_t total = plan_cells(plan_path);
  const std::string cache_dir = root + "/cache";

  const Launch cold = launch(opt, plan_path, cache_dir, root + "/cold", true);
  const Launch warm = launch(opt, plan_path, cache_dir, root + "/warm", true);
  account(cold, total, out);
  account(warm, total, out);
  out.check(warm.report.objectives_digest() ==
                cold.report.objectives_digest(),
            "traced warm digest equals cold digest");
  report::save_report(report_path, cold.report);

  // --- orchestrate: the cold launch's chunk records.
  std::vector<double> chunk_ms, spawn_ms;
  double busy_s = 0.0;
  for (const auto& r : cold.records) {
    chunk_ms.push_back(r.wall_s * 1e3);
    spawn_ms.push_back((r.wall_s - r.child_wall_s) * 1e3);
    busy_s += r.wall_s;
  }
  out.metric("trace.cold_cells_per_s", total / cold.wall_s, "cells/s");
  out.metric("trace.warm_cells_per_s", total / warm.wall_s, "cells/s");
  out.metric("orchestrate.chunk_ms_p50", median(chunk_ms), "ms");
  out.metric("orchestrate.chunk_ms_max", quantile(chunk_ms, 1.0), "ms");
  out.metric("orchestrate.spawn_ms", median(spawn_ms), "ms");
  out.metric("orchestrate.worker_busy_share",
             busy_s / (kWorkers * cold.wall_s), "ratio");
  out.metric("orchestrate.steals", static_cast<double>(cold.stats.steals),
             "count");
  out.metric("orchestrate.retries", static_cast<double>(cold.stats.retries),
             "count");

  // --- cache: store into a fresh directory, look up in the launch's.
  const parmis::serde::CampaignPlan plan = parmis::serde::load_plan(plan_path);
  const exec::CampaignConfig cfg = parmis::serde::to_campaign_config(
      plan, parmis::serde::ScenarioCatalogue());
  std::vector<parmis::cache::CellKey> keys;
  for (const auto& spec : cfg.scenarios) {
    for (const auto& method : spec.methods) {
      for (std::size_t s = 0; s < cfg.seeds_per_cell; ++s) {
        keys.push_back(parmis::cache::cell_key(
            spec, method, cfg.base_seed + s, cfg.anchor_limit,
            parmis::methods::canonical_method_config(method,
                                                     cfg.method_configs)));
      }
    }
  }
  parmis::cache::ResultCache fresh(root + "/store-cache");
  std::vector<double> store_us, lookup_us;
  for (std::size_t i = 0; i < keys.size() && i < cold.report.cells.size();
       ++i) {
    const double t0 = now_s();
    fresh.store(keys[i], cold.report.cells[i]);
    store_us.push_back((now_s() - t0) * 1e6);
  }
  parmis::cache::ResultCache launched(cache_dir);
  std::size_t lookup_hits = 0;
  for (const auto& key : keys) {
    const double t0 = now_s();
    lookup_hits += launched.lookup(key).has_value() ? 1 : 0;
    lookup_us.push_back((now_s() - t0) * 1e6);
  }
  out.check(lookup_hits == keys.size(), "every plan cell is in the cache");
  out.metric("cache.store_us", median(store_us), "us");
  out.metric("cache.entry_kb",
             fresh.num_entries() > 0
                 ? static_cast<double>(fresh.total_bytes()) /
                       fresh.num_entries() / 1024.0
                 : 0.0,
             "KiB");
  out.metric("cache.lookup_us", median(lookup_us), "us");
  const double warm_hits = hit_ratio(warm);
  out.check(warm_hits == 1.0, "traced warm hit ratio is 1");
  out.metric("cache.hit_ratio", warm_hits, "ratio");

  // --- report: chunk report serde and the scheduler's fold chain.
  std::vector<double> save_ms, load_ms, kb;
  parmis::make_directories(root + "/reports");
  for (std::size_t i = 0; i < cold.chunk_reports.size(); ++i) {
    const std::string path =
        root + "/reports/chunk_" + std::to_string(i) + ".json";
    double t0 = now_s();
    report::save_report(path, cold.chunk_reports[i]);
    save_ms.push_back((now_s() - t0) * 1e3);
    kb.push_back(static_cast<double>(std::filesystem::file_size(path)) /
                 1024.0);
    t0 = now_s();
    (void)report::load_report(path);
    load_ms.push_back((now_s() - t0) * 1e3);
  }
  report::MergeOptions lax;
  lax.strict = false;
  std::optional<exec::CampaignReport> folded;
  const double fold_t0 = now_s();
  for (const auto& chunk : cold.chunk_reports) {
    std::vector<exec::CampaignReport> inputs;
    if (folded.has_value()) inputs.push_back(std::move(*folded));
    inputs.push_back(chunk);
    folded = report::merge(std::move(inputs), lax);
  }
  const double fold_ms = (now_s() - fold_t0) * 1e3;
  out.check(folded.has_value() && folded->objectives_digest() ==
                                      cold.report.objectives_digest(),
            "replayed fold chain reproduces the launch digest");
  out.metric("report.save_ms", median(save_ms), "ms");
  out.metric("report.load_ms", median(load_ms), "ms");
  out.metric("report.kb", median(kb), "KiB");
  out.metric("report.fold_ms", fold_ms, "ms");

  // --- methods: one in-process run_cell per (scenario, method) at the
  // plan's first seed; governors pooled.
  static const std::set<std::string> kLearned = {"parmis", "scalarization",
                                                 "rl", "il", "dypo"};
  std::map<std::string, std::vector<double>> method_ms;
  for (const auto& spec : cfg.scenarios) {
    for (const auto& method : spec.methods) {
      const double t0 = now_s();
      const exec::CellResult cell = exec::CampaignRunner::run_cell(
          spec, method, cfg.base_seed, cfg.anchor_limit, cfg.method_configs);
      const double ms = (now_s() - t0) * 1e3;
      out.ops(1, cell.error.empty() ? 0 : 1, "cell failed: " + cell.error);
      method_ms[kLearned.count(method) ? method : "governors"].push_back(ms);
    }
  }
  for (const char* m :
       {"parmis", "scalarization", "rl", "il", "dypo", "governors"}) {
    out.metric(std::string("methods.") + m + ".cell_ms",
               median(method_ms[m]), "ms");
  }

  // --- baselines: the IL/DyPO oracle table, built per application of
  // every scenario that runs IL.
  std::vector<double> oracle_ms;
  for (const auto& spec : cfg.scenarios) {
    bool has_il = false;
    for (const auto& m : spec.methods) has_il = has_il || m == "il";
    if (!has_il) continue;
    parmis::soc::PlatformConfig pc = spec.platform_config;
    pc.noise_seed = cell_noise_seed(spec.name, pc.noise_seed, cfg.base_seed);
    const parmis::soc::SocSpec soc_spec =
        parmis::scenario::make_platform_spec(spec);
    parmis::soc::Platform platform(soc_spec, pc);
    for (const auto& app : parmis::scenario::make_applications(spec)) {
      const double t0 = now_s();
      const parmis::baselines::OracleTable table(platform, app);
      oracle_ms.push_back((now_s() - t0) * 1e3);
    }
  }
  out.metric("baselines.oracle_table_ms", median(oracle_ms), "ms");
  remove_tree(root + "/cold");
  remove_tree(root + "/warm");
}

}  // namespace perfbench
