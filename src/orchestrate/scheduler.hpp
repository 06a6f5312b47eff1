// Job scheduler: a worker pool draining a chunk queue through a
// ChunkBackend, one stored report per chunk and one merge at the end.
//
// One JobRunner is one campaign.  The campaign is pre-split into
// `chunks` micro-shards (chunk k is shard {k, chunks}, i.e.
// exec::shard_range's slice — an exec::CellRange), and the runner
// spawns `workers` supervisor threads (each thread drives one worker
// slot — for the process backend that means one child campaign process
// or one in-process cache replay at a time) that take them one at a
// time:
//
//   - a worker is granted one chunk: requeued retries first, then fresh
//     chunks in index order;
//   - a failed attempt is requeued with its attempt count bumped, up to
//     `max_attempts` total tries per chunk; a chunk that exhausts the
//     budget marks the whole job failed (first error retained), and
//     the rest still drain, so the provisional report covers
//     everything that *did* succeed.
//
// A grant is a (chunk, attempt) pair local to the worker that holds
// it, so only that worker answers it: the queue never revokes a grant.
// A hung worker is the backend's to end (ProcessBackend's chunk
// timeout kills the child, and the attempt fails).
//
// A chunk is done when its slot is filled: a completed chunk report is
// checked against the tiling with report::merge's rules (campaign
// hash, total_cells, shard count, slice size, a slot not already
// filled) and moved into that chunk's slot in the same locked step
// that counts the attempt, under the one mutex that also guards the
// queue.  A report the checks reject fails that attempt and leaves the
// slots as they were.  Nothing is merged while chunks land: progress()
// reads the digest, cell count and `partial` straight off the slots
// (the objectives digest excludes PHV), and a merged report is built
// from the slots only when one is needed — each write of
// `provisional_path`, provisional(), and run()'s result, which is one
// strict report::merge the slots are moved into, serialized once for
// both the last provisional state and `final_path`.
//
// That result is bit-identical to a single-process unsharded run
// regardless of worker count, grant order, retries, or killed workers
// (the headline guarantee).  Correctness never depends on the
// schedule: every chunk is an existing `--shard-index/--shard-count`
// invocation, cells are pure functions of the plan, and the merge
// recomputes every cell's PHV against the campaign-wide reference, so
// the strict merge of all chunk reports equals the unsharded run bit
// for bit *whatever* order the queue granted in.
//
// `provisional_path` is written outside the job mutex and coalesced:
// the worker that stores a chunk while no write is in flight becomes
// the writer, and merges and writes the stored slots until the file
// holds the newest state; a chunk stored meanwhile only marks that
// state newer, so at most one write is in flight and a burst of fast
// chunks costs a few writes, not one each.  A complete tiling is left
// to run(): it writes the final state, the strict merge's bytes, before
// it returns.  A write that fails is dropped (counted in
// parmis_orch_provisional_write_failures_total): the chunk stays
// stored and its attempt succeeds, and the next stored chunk, or run()
// at the end, writes the newer state.
//
// cancel() stops new grants, wakes the workers waiting for one, and
// aborts in-flight chunk runs (the process backend SIGKILLs its child).
#ifndef PARMIS_ORCHESTRATE_SCHEDULER_HPP
#define PARMIS_ORCHESTRATE_SCHEDULER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/campaign.hpp"
#include "orchestrate/backend.hpp"

namespace parmis::orchestrate {

/// Chunk queue counters, readable at any time (status verbs, tests).
struct LeaseTableStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_done = 0;      ///< stored in their slots
  std::size_t chunks_running = 0;   ///< granted, not yet answered
  std::size_t chunks_queued = 0;    ///< everything else still to do
  std::size_t chunks_exhausted = 0; ///< retry budget spent
  /// Always 0: the queue never steals.  Kept only because the
  /// repository benchmark (perfbench) reads it.
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;        ///< failed attempts requeued
};

struct JobConfig {
  std::size_t workers = 2;
  std::size_t chunks = 1;        ///< tiling size (resolved by caller)
  std::size_t max_attempts = 3;
  /// Non-empty: the merge of the slots stored so far is atomically
  /// written here as chunks land (coalesced, see the file comment) and
  /// once more with the final state, so observers can load a
  /// digest-verified snapshot of the campaign-so-far at any time.
  std::string provisional_path;
  /// Non-empty: run() atomically writes the job's report here before it
  /// returns it, from the same bytes as the last provisional write.
  std::string final_path;
  /// Non-empty: per-job registry gauges are exported under this prefix
  /// (e.g. "parmis_orch_job7" -> parmis_orch_job7_chunks_done).  Must
  /// match the obs name grammar: ^[a-z][a-z0-9_]*$.
  std::string obs_prefix;
  /// Job identity stamped into orchestrator trace spans
  /// ("job=N;chunk=K;attempt=A" details) — what lets the distributed
  /// stitcher pick this job's spans out of a shared daemon trace.
  std::uint64_t job_id = 0;
  /// Called after each chunk attempt is answered and counted in the
  /// queue (outside the runner's lock), so an observer can wait
  /// for progress instead of polling.  Empty: nothing is called.
  std::function<void()> on_progress;
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
  std::uint64_t provisional_merges = 0;  ///< chunk reports stored
  /// Successful writes of JobConfig::provisional_path (at most one per
  /// stored chunk, plus none for a job without a provisional path).
  std::uint64_t provisional_writes = 0;
  std::uint64_t chunks_recovered = 0;  ///< chunks served from the cache
  /// Objectives digest of the stored chunks in index order (what their
  /// merge would carry); meaningful only when has_report.
  bool has_report = false;
  std::uint64_t report_digest = 0;
  std::size_t report_cells = 0;
  bool report_partial = false;
  double wall_s = 0.0;
  std::string error;
  /// Live throughput from the stored chunks: cells stored so far, the
  /// campaign's full cell count (every chunk report carries the
  /// ORIGINAL total_cells — that is what makes the ETA computable
  /// mid-run), stored cells per wall second, and the naive
  /// remaining/rate estimate (0 when unknown or finished).
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

  /// Runs the job to completion and returns the final merged report
  /// (written to JobConfig::final_path first, when one is set).
  /// Throws parmis::Error if the job failed (retry budget exhausted)
  /// or was cancelled; progress() then carries the details and the
  /// last provisional merge remains available via provisional().
  exec::CampaignReport run();

  /// Stops granting, aborts in-flight chunks; run() then throws.
  void cancel();

  JobProgress progress() const;

  /// Non-strict merge of the chunks stored so far; partial until every
  /// chunk is in.  nullopt before the first chunk lands, and once run()
  /// has moved a complete tiling into its result.
  std::optional<exec::CampaignReport> provisional() const;

 private:
  /// Shared so a provisional merge can copy them after mu_ is released;
  /// not const, so the final merge can move from a slot nobody holds.
  using StoredReport = std::shared_ptr<exec::CampaignReport>;

  /// What progress() reads off the filled slots.
  struct SlotSummary {
    std::uint64_t digest = exec::kObjectivesDigestSeed;
    std::size_t cells = 0;
    std::size_t total_cells = 0;
  };

  void worker_loop();
  /// Counts one answered attempt at `chunk`: a successful outcome's
  /// report is stored (see store_locked), and a failed or rejected one
  /// requeues the chunk or, after max_attempts tries, exhausts it.
  /// Returns whether the report was stored.
  bool answer_locked(std::size_t chunk, std::size_t attempt,
                     ChunkOutcome& outcome);
  /// Checks `report` against the tiling and moves it into its slot;
  /// throws, storing nothing, if the checks fail.
  void store_locked(std::size_t chunk, exec::CampaignReport&& report);
  /// Brings provisional_path up to the newest stored state, unless
  /// another thread is writing it (which then does) or the state is the
  /// complete tiling (write_final's); never throws.
  void write_provisional();
  /// After the workers return: the strict merge of a complete tiling,
  /// moved out of the slots and serialized once into provisional_path
  /// and, when `done`, into final_path (throwing if that write fails).
  /// Without a complete tiling, brings provisional_path up to date and
  /// returns nullopt.
  std::optional<exec::CampaignReport> write_final(bool done);
  /// The filled slots, in chunk order.
  std::vector<StoredReport> stored_locked() const;
  /// Non-strict report::merge over copies of `stored`.
  static exec::CampaignReport merge_stored(
      const std::vector<StoredReport>& stored);
  SlotSummary summary_locked() const;
  LeaseTableStats stats_locked() const;
  void export_gauges_locked() const;

  ChunkBackend& backend_;
  JobConfig cfg_;
  /// Read by the backends without mu_; set under it by cancel().
  std::atomic<bool> abort_{false};

  mutable std::mutex mu_;
  /// Signalled when an attempt is answered or the job is cancelled.
  std::condition_variable cv_;
  JobProgress::State state_ = JobProgress::State::Pending;
  /// Attempts made per chunk that failed: the next attempt's index.
  std::vector<std::size_t> tries_;
  std::deque<std::size_t> retry_;  ///< requeued chunks, FIFO
  std::size_t fresh_next_ = 0;     ///< [fresh_next_, chunks) never granted
  std::size_t running_ = 0;
  std::size_t exhausted_ = 0;
  std::uint64_t retries_ = 0;
  std::string first_error_;  ///< the first exhausted chunk's last error
  /// One per chunk, filled by store_locked with that chunk's report.
  std::vector<StoredReport> slots_;
  std::size_t stored_ = 0;  ///< filled slots: the chunks done
  /// The slots' summary as write_final moved them into the final merge.
  std::optional<SlotSummary> final_summary_;
  /// stored_ as of the last successful provisional write.
  std::size_t provisional_written_ = 0;
  std::uint64_t provisional_writes_ = 0;
  bool provisional_writing_ = false;  ///< a write is in flight
  std::uint64_t chunks_recovered_ = 0;
  double wall_s_ = 0.0;
  std::string error_;
  std::vector<AttemptRecord> attempts_;
  std::uint64_t start_steady_ns_ = 0;  ///< run() entry; 0 before
};

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_SCHEDULER_HPP
