// Job scheduler: a worker pool draining a LeaseTable through a
// ChunkBackend, one stored report per chunk and one merge at the end.
//
// One JobRunner is one campaign: it owns the chunk queue, spawns
// `workers` supervisor threads (each thread drives one worker slot —
// for the process backend that means one child campaign process or
// one in-process cache replay at a time), and moves every completed
// chunk report into that chunk's slot after checking it against the
// tiling with report::merge's rules (campaign hash, total_cells, shard
// count, slice size, a slot not already filled).  Nothing is merged
// while chunks land: progress() reads the digest, cell count and
// `partial` straight off the slots (the objectives digest excludes
// PHV), and a merged report is built from the slots only when one is
// needed — each write of `provisional_path`, provisional(), and run()'s
// result, which is one strict report::merge of every slot, serialized
// once for both the last provisional state and `final_path`.  That
// result is bit-identical to a single-process unsharded run regardless
// of worker count, grant order, retries, or killed workers (the
// headline guarantee; see lease.hpp for why the schedule cannot
// matter).
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
// Each grant is answered once, by the slot that holds it: a chunk
// report the checks reject (a wrong campaign, a chunk stored twice)
// fails that attempt and leaves the slots as they were.  A hung worker
// is the backend's to end (ProcessBackend's chunk timeout).
//
// Failure semantics: a chunk that exhausts its retry budget marks the
// job failed, but the pool still drains the remaining chunks, so the
// provisional report covers everything that *did* succeed.  cancel()
// stops new grants and aborts in-flight chunk runs (the process
// backend SIGKILLs its child).
#ifndef PARMIS_ORCHESTRATE_SCHEDULER_HPP
#define PARMIS_ORCHESTRATE_SCHEDULER_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
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
  /// lease table (outside the runner's lock), so an observer can wait
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

  /// Non-strict merge of the chunks stored so far (nullopt before the
  /// first chunk lands); partial until every chunk is in.
  std::optional<exec::CampaignReport> provisional() const;

 private:
  using StoredReport = std::shared_ptr<const exec::CampaignReport>;

  void worker_loop();
  /// Checks `report` against the tiling and moves it into its slot;
  /// throws, storing nothing, if the checks fail.
  void fold_in(std::size_t chunk, exec::CampaignReport&& report);
  /// Brings provisional_path up to the newest stored state, unless
  /// another thread is writing it (which then does) or the state is the
  /// complete tiling (write_final's); never throws.
  void write_provisional();
  /// After the workers return: the strict merge of a complete tiling,
  /// serialized once into provisional_path and, when `done`, into
  /// final_path (throwing if that write fails).  Without a complete
  /// tiling, brings provisional_path up to date and returns nullopt.
  std::optional<exec::CampaignReport> write_final(bool done);
  /// The filled slots, in chunk order.
  std::vector<StoredReport> stored_locked() const;
  /// report::merge over copies of `stored`.
  static exec::CampaignReport merge_stored(
      const std::vector<StoredReport>& stored, bool strict);
  void export_gauges_locked() const;

  ChunkBackend& backend_;
  JobConfig cfg_;
  LeaseTable table_;
  std::atomic<bool> abort_{false};

  mutable std::mutex mu_;
  JobProgress::State state_ = JobProgress::State::Pending;
  /// One per chunk, filled by fold_in with that chunk's report; shared
  /// so a merge can copy them after mu_ is released.
  std::vector<StoredReport> slots_;
  std::uint64_t provisional_merges_ = 0;
  /// provisional_merges_ as of the last successful provisional write.
  std::uint64_t provisional_written_ = 0;
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
