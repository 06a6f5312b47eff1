// Job scheduler: a worker pool draining a LeaseTable through a
// ChunkBackend, streaming provisional merges as chunks land.
//
// One JobRunner is one campaign: it owns the lease table, spawns
// `workers` supervisor threads (each thread drives one worker slot —
// for the process backend that means one child campaign process at a
// time), and folds every completed chunk report into a running
// provisional merge (report::merge non-strict, the incremental
// re-merge path).  When the tiling completes, the provisional *is* the
// final report — merge() flips `partial` off and the result is
// bit-identical to a single-process unsharded run regardless of worker
// count, grant order, retries, or killed workers (the headline
// guarantee; see lease.hpp for why the schedule cannot matter).
//
// Failure semantics: a chunk that exhausts its retry budget marks the
// job failed, but the pool still drains the remaining chunks, so the
// last provisional report covers everything that *did* succeed.
// cancel() stops new grants and aborts in-flight chunk runs (the
// process backend SIGKILLs its child).
#ifndef PARMIS_ORCHESTRATE_SCHEDULER_HPP
#define PARMIS_ORCHESTRATE_SCHEDULER_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/campaign.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/lease.hpp"

namespace parmis::orchestrate {

struct JobConfig {
  std::size_t workers = 2;
  std::size_t chunks = 1;        ///< tiling size (resolved by caller)
  std::size_t max_attempts = 3;
  std::uint64_t lease_timeout_ms = 0;  ///< 0 = grants never expire
  /// Non-empty: every provisional merge is atomically written here (and
  /// the final report too), so observers can load a digest-verified
  /// snapshot of the campaign-so-far at any time.
  std::string provisional_path;
  /// Non-empty: per-job registry gauges are exported under this prefix
  /// (e.g. "parmis_orch_job7" -> parmis_orch_job7_chunks_done).  Must
  /// match the obs name grammar: ^[a-z][a-z0-9_]*$.
  std::string obs_prefix;
  /// Job identity stamped into orchestrator trace spans
  /// ("job=N;chunk=K;attempt=A" details) — what lets the distributed
  /// stitcher pick this job's spans out of a shared daemon trace.
  std::uint64_t job_id = 0;
};

/// One backend chunk attempt as the scheduler saw it — the audit trail
/// the daemon's `results` verb surfaces, worker log and observability
/// artifact paths included (the backend used to discard them).
struct AttemptRecord {
  std::size_t chunk = 0;
  std::size_t attempt = 0;  ///< 0-based
  bool ok = false;
  bool recovered_from_cache = false;
  std::string error;         ///< "" when ok
  std::string log_path;      ///< "" for in-process backends
  std::string trace_path;    ///< "" unless trace collection was on
  std::string metrics_path;  ///< "" unless metrics collection was on
};

struct JobProgress {
  enum class State { Pending, Running, Done, Failed, Cancelled };
  State state = State::Pending;
  LeaseTableStats stats;
  std::size_t workers = 0;
  std::uint64_t provisional_merges = 0;
  std::uint64_t chunks_recovered = 0;  ///< retries satisfied from cache
  /// Digest of the latest provisional (or final) merge; meaningful
  /// only when has_report.
  bool has_report = false;
  std::uint64_t report_digest = 0;
  std::size_t report_cells = 0;
  bool report_partial = false;
  double wall_s = 0.0;
  std::string error;
  /// Live throughput from the provisional merge stream: cells merged
  /// so far, the campaign's full cell count (a parmis-report-v3
  /// partial keeps the ORIGINAL total_cells — that is what makes the
  /// ETA computable mid-run), merged cells per wall second, and the
  /// naive remaining/rate estimate (0 when unknown or finished).
  std::size_t cells_done = 0;
  std::size_t total_cells = 0;
  double cells_per_s = 0.0;
  double eta_s = 0.0;
  /// Every chunk attempt, in completion order.
  std::vector<AttemptRecord> attempts;
};

const char* job_state_name(JobProgress::State state);

class JobRunner {
 public:
  /// `backend` must outlive the runner.  config.chunks >= 1.
  JobRunner(ChunkBackend& backend, JobConfig config);

  /// Runs the job to completion and returns the final merged report.
  /// Throws parmis::Error if the job failed (retry budget exhausted)
  /// or was cancelled; progress() then carries the details and the
  /// last provisional merge remains available via provisional().
  exec::CampaignReport run();

  /// Stops granting, aborts in-flight chunks; run() then throws.
  void cancel();

  JobProgress progress() const;

  /// Copy of the latest provisional/final merge (nullopt before the
  /// first chunk lands).
  std::optional<exec::CampaignReport> provisional() const;

 private:
  void worker_loop();
  void fold_in(std::size_t chunk, exec::CampaignReport&& report);
  void export_gauges_locked() const;

  ChunkBackend& backend_;
  JobConfig cfg_;
  LeaseTable table_;
  std::atomic<bool> abort_{false};

  mutable std::mutex mu_;
  JobProgress::State state_ = JobProgress::State::Pending;
  std::optional<exec::CampaignReport> provisional_;
  std::set<std::size_t> merged_chunks_;  ///< dedups zombie completions
  std::uint64_t provisional_merges_ = 0;
  std::uint64_t chunks_recovered_ = 0;
  double wall_s_ = 0.0;
  std::string error_;
  std::vector<AttemptRecord> attempts_;
  std::uint64_t start_steady_ns_ = 0;  ///< run() entry; 0 before
};

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_SCHEDULER_HPP
