#include "orchestrate/backend.hpp"

#include <csignal>
#include <utility>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/distributed.hpp"
#include "obs/obs.hpp"
#include "orchestrate/subprocess.hpp"
#include "report/report_json.hpp"
#include "serde/plan.hpp"

namespace parmis::orchestrate {

namespace {

/// Per-attempt artifact path inside `dir` ("" passes through).
std::string attempt_artifact(const std::string& dir, std::size_t index,
                             std::size_t attempt) {
  if (dir.empty()) return std::string();
  return dir + "/chunk_" + std::to_string(index) + "_attempt_" +
         std::to_string(attempt) + ".json";
}

}  // namespace

ProcessBackend::ProcessBackend(Config config) : cfg_(std::move(config)) {
  require(!cfg_.campaign_bin.empty(), "orchestrate: no campaign binary");
  require(!cfg_.plan_path.empty(), "orchestrate: no plan path");
  require(!cfg_.work_dir.empty(), "orchestrate: no work dir");
}

ProcessBackend::~ProcessBackend() = default;

void ProcessBackend::resolve_replay() {
  // The worker's view of the plan, as the campaign CLI builds it from
  // `--plan --cache-dir`: inline specs join the catalogue and the
  // backend's cache dir overrides the plan's.  Anything that does not
  // resolve here fails in the worker too, where it belongs: with
  // replay off every chunk runs as a process.
  try {
    serde::CampaignPlan plan = serde::load_plan(cfg_.plan_path);
    serde::ScenarioCatalogue catalogue;
    for (const serde::ScenarioRef& ref : plan.scenarios) {
      if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
    }
    if (!cfg_.cache_dir.empty()) plan.cache.dir = cfg_.cache_dir;
    if (plan.cache.dir.empty()) return;
    plan.validate();
    exec::CampaignConfig config = serde::to_campaign_config(plan, catalogue);
    config.num_threads = cfg_.threads;
    config.shard = exec::ShardSpec{};  // chunks are shards of the whole
    replay_cache_ = std::make_unique<cache::ResultCache>(plan.cache.dir);
    config.cache = replay_cache_.get();
    replay_runner_ = std::make_unique<exec::CampaignRunner>(std::move(config));
  } catch (const std::exception&) {
    replay_runner_.reset();
    replay_cache_.reset();
  }
}

int ProcessBackend::run_child(std::size_t index, std::size_t count,
                              std::size_t attempt,
                              const std::string& report_path,
                              const std::atomic<bool>& abort) const {
  SpawnSpec spec;
  spec.argv = {cfg_.campaign_bin,
               "--plan=" + cfg_.plan_path,
               "--shard-index=" + std::to_string(index),
               "--shard-count=" + std::to_string(count),
               "--threads=" + std::to_string(cfg_.threads),
               "--json=" + report_path};
  if (!cfg_.cache_dir.empty()) {
    spec.argv.push_back("--cache-dir=" + cfg_.cache_dir);
  }
  if (!cfg_.trace_dir.empty()) {
    spec.argv.push_back(
        "--trace-out=" + attempt_artifact(cfg_.trace_dir, index, attempt));
    obs::TraceContext ctx;
    ctx.trace_id = cfg_.trace_id;
    ctx.job = cfg_.job_id;
    ctx.chunk = index;
    ctx.attempt = attempt;
    ctx.spawn_wall_ns = wall_now_ns();
    spec.env.emplace_back(obs::kTraceParentEnv, ctx.encode());
  }
  if (!cfg_.metrics_dir.empty()) {
    spec.argv.push_back("--metrics-out=" +
                        attempt_artifact(cfg_.metrics_dir, index, attempt));
  }
  // One log per attempt (stdout and stderr interleaved), kept for
  // post-mortems — a retried chunk's failure output is evidence.
  const std::string log = cfg_.work_dir + "/chunk_" +
                          std::to_string(index) + "_attempt_" +
                          std::to_string(attempt) + ".log";
  spec.stdout_path = log;
  spec.stderr_path = log;

  ChildProcess child;
  child.spawn(spec);
  if (attempt == 0 && cfg_.inject_kill_chunk == index) {
    // Simulated worker crash: SIGKILL the child right after spawn.
    // Only attempt 0 is killed — the retry (a cache replay, or a
    // rerun) is what recovers the chunk.  A warm chunk can finish in
    // 2 ms, so a parent thread preempted between spawn and kill may
    // lose the race; the attempt reports the kill either way, so the
    // crash is deterministic.
    child.kill_now();
    (void)child.wait();
    return 128 + SIGKILL;
  }
  return child.wait(cfg_.chunk_timeout_ms, &abort);
}

ChunkOutcome ProcessBackend::run_chunk(std::size_t index,
                                       std::size_t count,
                                       std::size_t attempt,
                                       const std::atomic<bool>& abort) {
  std::call_once(resolve_once_, [this] { resolve_replay(); });
  ChunkOutcome outcome;
  if (abort.load()) {
    outcome.error = "aborted";
    return outcome;
  }
  // A chunk whose cells are all cached costs only the reads: no
  // process, on any attempt.  The injected crash still needs its
  // process, so that attempt always spawns.
  const bool injected = attempt == 0 && cfg_.inject_kill_chunk == index;
  if (replay_runner_ != nullptr && !injected) {
    PARMIS_TRACE_SPAN_D("orch", "replay", "job=%llu;chunk=%llu;attempt=%llu",
                        static_cast<unsigned long long>(cfg_.job_id),
                        static_cast<unsigned long long>(index),
                        static_cast<unsigned long long>(attempt));
    try {
      if (std::optional<exec::CampaignReport> replayed =
              replay_runner_->replay_cached(
                  exec::ShardSpec{index, count})) {
        outcome.ok = true;
        outcome.recovered_from_cache = true;
        outcome.report = std::move(*replayed);
        PARMIS_COUNTER_ADD("parmis_orch_chunks_recovered_total", 1);
        return outcome;
      }
    } catch (const std::exception&) {
      // The worker gets the chunk and reports whatever is wrong.
    }
  }

  const std::string report_path =
      cfg_.work_dir + "/chunk_" + std::to_string(index) + ".json";
  int status = 0;
  try {
    status = run_child(index, count, attempt, report_path, abort);
  } catch (const std::exception& e) {
    // A worker that could not start (a log that cannot be opened, as
    // in a missing work dir, or a spawn the OS refused) is a failed
    // attempt like any other: the retry budget decides what it means.
    outcome.error = std::string("cannot run campaign worker: ") + e.what();
    return outcome;
  }
  outcome.log_path = cfg_.work_dir + "/chunk_" + std::to_string(index) +
                     "_attempt_" + std::to_string(attempt) + ".log";
  outcome.trace_path = attempt_artifact(cfg_.trace_dir, index, attempt);
  outcome.metrics_path = attempt_artifact(cfg_.metrics_dir, index, attempt);
  if (status != 0) {
    outcome.error =
        status >= 128
            ? "campaign worker killed by signal " +
                  std::to_string(status - 128)
            : "campaign worker exited with status " +
                  std::to_string(status);
    return outcome;
  }
  try {
    outcome.report = report::load_report(report_path);
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

InprocessBackend::InprocessBackend(exec::CampaignConfig base)
    : base_(std::move(base)) {}

ChunkOutcome InprocessBackend::run_chunk(std::size_t index,
                                         std::size_t count,
                                         std::size_t /*attempt*/,
                                         const std::atomic<bool>& abort) {
  ChunkOutcome outcome;
  if (abort.load()) {
    outcome.error = "aborted";
    return outcome;
  }
  try {
    exec::CampaignConfig config = base_;
    config.shard = exec::ShardSpec{index, count};
    outcome.report = exec::CampaignRunner(config).run();
    // Mirror the campaign CLI's exit contract: a failed cell fails the
    // chunk, so the retry budget (not a silent hole in the report)
    // decides what a persistent cell error means for the job.
    for (const auto& cell : outcome.report.cells) {
      if (!cell.error.empty()) {
        outcome.error = "cell " + cell.scenario + "/" + cell.method +
                        " failed: " + cell.error;
        return outcome;
      }
    }
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

}  // namespace parmis::orchestrate
