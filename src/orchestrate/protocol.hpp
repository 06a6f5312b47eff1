// parmis-orch-v2: newline-delimited JSON control protocol for the
// orchestration daemon, plus the job manager behind it.
//
// One request per line in, one response per line out, over the same
// transport policy-serve uses (serve/socket.hpp) — stdio, a canned
// file, or an AF_UNIX socket.  Ops:
//
//   {"op":"submit","plan_path":P,...}   queue a campaign (or inline
//                                       "plan":{...}; optional workers,
//                                       chunks, max_attempts, tag,
//                                       trace)
//   {"op":"status","job":N}             progress counters + digest +
//                                       live cells_per_s / eta_s
//   {"op":"results","job":N}            final (or provisional) report
//                                       path + digest + per-attempt
//                                       worker log / artifact paths
//   {"op":"cancel","job":N}             stop a running job
//   {"op":"jobs"}                       all jobs, oldest first
//   {"op":"ping"}                       liveness: protocol, uptime_s,
//                                       jobs, defaults
//   {"op":"metrics"}                    process metrics registry; with
//                                       "job":N, that job's rollup
//   {"op":"quit"}                       shut the daemon down
//
// Same envelope rules as parmis-serve-v1: every response carries
// ok/op and echoes the request's "id"; a malformed line or failed
// request answers {"ok":false,"error":...} and the session continues.
// Version bumps follow the plan/report schema policy
// (docs/orchestration.md).
//
// The JobManager owns job lifecycles: submit resolves and validates
// the plan up front (a bad plan fails the submit, not a worker later),
// snapshots it into the job directory, and runs a JobRunner on its own
// thread with a ProcessBackend spawning `campaign` CLI workers.  Job
// state is readable at any time through JobRunner::progress(); the
// manager's destructor cancels and joins everything.
#ifndef PARMIS_ORCHESTRATE_PROTOCOL_HPP
#define PARMIS_ORCHESTRATE_PROTOCOL_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/scheduler.hpp"
#include "serde/plan.hpp"
#include "serve/socket.hpp"

namespace parmis::orchestrate {

/// Protocol version announced by ping; bumps follow the plan/report
/// schema policy (docs/orchestration.md).
inline constexpr const char* kOrchProtocol = "parmis-orch-v2";

class JobManager {
 public:
  /// Server-wide defaults; per-submit options override the sizing
  /// knobs.
  struct Defaults {
    std::size_t workers = 3;
    std::size_t chunks = 0;        ///< 0 = 4 per worker (cell-clamped)
    std::size_t max_attempts = 3;
    std::uint64_t lease_timeout_ms = 0;
    std::uint64_t chunk_timeout_ms = 0;
    std::size_t threads_per_worker = 1;
    std::string work_dir = ".parmis-orch";
    std::string campaign_bin = "campaign";
    /// Shared result cache handed to every worker; empty falls back to
    /// the submitted plan's own cache block (if any).
    std::string cache_dir;
    /// Fault injection forwarded to every job's ProcessBackend (CI's
    /// worker-kill smoke).
    std::optional<std::size_t> inject_kill_chunk;
    /// Distributed observability default (per-submit "trace" overrides):
    /// workers run with --trace-out/--metrics-out into the job dir and a
    /// PARMIS_TRACE_PARENT context; at job end the shards are stitched
    /// into <job_dir>/stitched_trace.json, merged into
    /// <job_dir>/metrics_rollup.json, and the rollup's counters and
    /// histograms fold into the daemon's live registry.
    bool trace = false;
    /// Test hook: replaces the ProcessBackend (hermetic in-process
    /// jobs).  Receives the resolved plan, the job directory, and the
    /// process config that would have been used.
    std::function<std::unique_ptr<ChunkBackend>(
        const serde::CampaignPlan& plan, const std::string& job_dir,
        const ProcessBackend::Config& process_config)>
        backend_factory;
  };

  struct SubmitOptions {
    std::optional<std::size_t> workers;
    std::optional<std::size_t> chunks;
    std::optional<std::size_t> max_attempts;
    std::string tag;
    std::optional<bool> trace;  ///< overrides Defaults::trace
  };

  /// Point-in-time view of one job.
  struct JobInfo {
    std::uint64_t id = 0;
    std::string tag;
    JobProgress progress;
    std::size_t chunks = 0;
    std::size_t total_cells = 0;
    std::string job_dir;
    std::string provisional_path;  ///< written as chunks land
    std::string final_path;        ///< written once Done
    bool trace = false;            ///< distributed observability on
    /// Written once the job settles (trace jobs only; "" otherwise).
    std::string stitched_trace_path;
    std::string metrics_rollup_path;
  };

  explicit JobManager(Defaults defaults);
  ~JobManager();  // shutdown()

  /// Validates and resolves the plan (throws parmis::Error on a bad
  /// one), snapshots it to <work_dir>/job<id>/plan.json, and starts
  /// the job.  The pool is clamped to the chunk count: a worker past
  /// the last chunk could never be granted one.  Returns the newborn
  /// job's info.
  JobInfo submit(const serde::CampaignPlan& plan,
                 const SubmitOptions& options = {});

  std::optional<JobInfo> info(std::uint64_t id) const;
  /// True if the job existed and was still running.
  bool cancel(std::uint64_t id);
  std::vector<JobInfo> jobs() const;  ///< oldest first

  const Defaults& defaults() const { return defaults_; }

  /// Cancels every running job and joins all job threads (idempotent;
  /// also what the destructor runs).
  void shutdown();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string tag;
    std::size_t chunks = 0;
    std::size_t total_cells = 0;
    std::string job_dir;
    std::string provisional_path;
    std::string final_path;
    bool trace = false;
    std::uint64_t trace_id = 0;
    std::string trace_dir;    ///< worker + orchestrator trace shards
    std::string metrics_dir;  ///< worker metrics shards
    std::string stitched_trace_path;
    std::string metrics_rollup_path;
    std::unique_ptr<ChunkBackend> backend;
    std::unique_ptr<JobRunner> runner;
    std::thread thread;
  };

  JobInfo info_locked(const Job& job) const;
  /// Job-end shard collection: stitches trace shards and merges metrics
  /// shards (obs/distributed), folding the rollup into the live
  /// registry.  Best-effort — observability failures never fail a job.
  void finalize_observability(Job& job);

  Defaults defaults_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  bool shut_down_ = false;
};

/// Manager defaults from the pool flags both orchestration CLIs take:
/// --workers, --chunks, --max-attempts, --threads, --work-dir (default
/// `work_dir`), --campaign-bin (default: `campaign` next to `argv0`),
/// --cache-dir, --lease-timeout-s, --chunk-timeout-s,
/// --inject-kill-chunk and --trace.  Throws parmis::Error on a
/// negative value.
JobManager::Defaults defaults_from_flags(const CliArgs& args,
                                         const std::string& argv0,
                                         const std::string& work_dir);

/// One parmis-orch-v2 session over a JobManager (see file comment).
/// Binds to serve::LineHandler; never throws on bad input.
class OrchSession {
 public:
  explicit OrchSession(JobManager& manager);

  serve::LineOutcome handle_line(const std::string& line);

 private:
  json::Value dispatch(const json::Value& doc, std::string* op,
                       json::Value* id, bool* quit);
  json::Value job_body(const JobManager::JobInfo& info) const;

  JobManager* manager_;
  Stopwatch uptime_;
};

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_PROTOCOL_HPP
