#include "orchestrate/backend.hpp"

#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/distributed.hpp"
#include "obs/obs.hpp"
#include "orchestrate/subprocess.hpp"
#include "report/report_json.hpp"

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

int ProcessBackend::run_child(std::size_t index, std::size_t count,
                              std::size_t attempt, bool require_cached,
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
  if (require_cached) spec.argv.push_back("--require-cached=1");
  if (!require_cached) {
    // Cache probes stay unobserved: they are recovery machinery, and a
    // probe's shard would clobber the real attempt's artifact.
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
  }
  // One log per attempt (stdout and stderr interleaved), kept for
  // post-mortems — a retried chunk's failure output is evidence.
  const std::string log = cfg_.work_dir + "/chunk_" +
                          std::to_string(index) + "_attempt_" +
                          std::to_string(attempt) +
                          (require_cached ? "_probe" : "") + ".log";
  spec.stdout_path = log;
  spec.stderr_path = log;

  ChildProcess child;
  child.spawn(spec);
  if (!require_cached && attempt == 0 &&
      cfg_.inject_kill_chunk == index) {
    // Simulated worker crash: SIGKILL the child right after spawn.
    // Only attempt 0 is killed — the retry path (cache probe + rerun)
    // is what recovers the chunk.  A warm chunk can finish in 2 ms, so
    // a parent thread preempted between fork and kill may lose the
    // race; the attempt reports the kill either way, so the crash is
    // deterministic.
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
  ChunkOutcome outcome;
  const std::string report_path =
      cfg_.work_dir + "/chunk_" + std::to_string(index) + ".json";
  const std::string attempt_tag =
      "chunk_" + std::to_string(index) + "_attempt_" +
      std::to_string(attempt);
  const auto finish = [&](bool recovered) {
    try {
      outcome.report = report::load_report(report_path);
      outcome.ok = true;
      outcome.recovered_from_cache = recovered;
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.error = e.what();
    }
  };

  int status = 0;
  try {
    if (attempt > 0 && !cfg_.cache_dir.empty()) {
      // Failed-worker detection: replay the chunk purely from the
      // shared cache.  Success means the dead worker (or another job
      // sharing the cache) already computed every cell — the probe
      // regenerated the digest-verified report without re-running
      // anything.
      if (run_child(index, count, attempt, /*require_cached=*/true,
                    report_path, abort) == 0) {
        finish(/*recovered=*/true);
        if (outcome.ok) {
          outcome.log_path =
              cfg_.work_dir + "/" + attempt_tag + "_probe.log";
          PARMIS_COUNTER_ADD("parmis_orch_chunks_recovered_total", 1);
          return outcome;
        }
      }
      if (abort.load()) {
        outcome.ok = false;
        outcome.error = "aborted";
        return outcome;
      }
    }
    status = run_child(index, count, attempt, /*require_cached=*/false,
                       report_path, abort);
  } catch (const std::exception& e) {
    // A worker that could not start (a log that cannot be opened, as
    // in a missing work dir, or a fork the OS refused) is a failed
    // attempt like any other: the retry budget decides what it means.
    outcome.ok = false;
    outcome.error = std::string("cannot run campaign worker: ") + e.what();
    return outcome;
  }
  outcome.log_path = cfg_.work_dir + "/" + attempt_tag + ".log";
  outcome.trace_path = attempt_artifact(cfg_.trace_dir, index, attempt);
  outcome.metrics_path = attempt_artifact(cfg_.metrics_dir, index, attempt);
  if (status != 0) {
    outcome.ok = false;
    outcome.error =
        status >= 128
            ? "campaign worker killed by signal " +
                  std::to_string(status - 128)
            : "campaign worker exited with status " +
                  std::to_string(status);
    return outcome;
  }
  finish(/*recovered=*/false);
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
