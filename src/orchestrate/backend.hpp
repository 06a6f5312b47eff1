// Chunk execution backends: how a granted chunk actually runs.
//
// The scheduler (scheduler.hpp) is backend-agnostic; a chunk is "shard
// {index, count} of the campaign" and a backend turns that into a
// CampaignReport.  Two implementations:
//
//   - ProcessBackend: the production path.  A chunk whose cells are
//     all in the shared cache is replayed in the supervisor by
//     CampaignRunner::replay_cached — the function behind `campaign
//     --require-cached` — with no process started; that holds on every
//     attempt, so a retry after a crashed worker that had already
//     stored its cells costs only the cache reads.  Any other chunk is
//     one child invocation of the campaign CLI with
//     `--shard-index/--shard-count --json` against the same cache, so
//     workers are crash-isolated processes and every result comes back
//     through the digest-verified report serde.  The plan is resolved
//     for replay once, on the first chunk, the way the campaign CLI
//     resolves it, into one unsharded replay runner that holds the
//     validated scenarios, their canonical text and every cell key;
//     each chunk replays its shard's slice of it.  A plan that does
//     not resolve, or no cache, leaves every chunk to a worker.
//
//   - InprocessBackend: CampaignRunner in this process — hermetic unit
//     tests and scheduling-overhead benchmarks, no child-process noise.
//
// All three paths produce bit-identical chunk reports for the same plan
// (cells, keys and order do not depend on the shard, and a cached cell
// is a bitwise replay), so the scheduler's merged result never depends
// on which backend — or which worker, or the cache — ran a chunk.
#ifndef PARMIS_ORCHESTRATE_BACKEND_HPP
#define PARMIS_ORCHESTRATE_BACKEND_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "exec/campaign.hpp"

namespace parmis::orchestrate {

/// Result of one chunk attempt.  `ok == false` sends the chunk back to
/// the lease table's retry path with `error`.
struct ChunkOutcome {
  bool ok = false;
  /// Served from the cache with no worker (ProcessBackend's replay).
  bool recovered_from_cache = false;
  std::string error;
  exec::CampaignReport report;
  /// Where this attempt's worker wrote its interleaved stdout/stderr
  /// (ProcessBackend only; "" in-process).  Surfaced through the
  /// `results` verb so a failed attempt's post-mortem is one open away.
  std::string log_path;
  /// Observability artifacts the worker produced, when the backend was
  /// configured to collect them ("" otherwise) — the shards
  /// obs::stitch_traces / obs::merge_metrics consume at job end.
  std::string trace_path;
  std::string metrics_path;
};

class ChunkBackend {
 public:
  virtual ~ChunkBackend() = default;

  /// Runs chunk `index` of the `count`-chunk tiling.  `attempt` is
  /// 0-based; `abort` may flip true at any point (cancel) and should
  /// stop the work — a late or duplicated completion is harmless.
  /// Must not throw: failures are ChunkOutcome::error.
  virtual ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                                 std::size_t attempt,
                                 const std::atomic<bool>& abort) = 0;
};

/// Campaign-CLI-per-chunk backend (see file comment).
class ProcessBackend : public ChunkBackend {
 public:
  struct Config {
    std::string campaign_bin;  ///< path to the campaign executable
    std::string plan_path;     ///< plan file every worker loads
    std::string work_dir;      ///< chunk reports + per-attempt logs
    /// Shared result cache passed to every worker (--cache-dir) and
    /// read by the in-process replay; empty leaves caching to the
    /// plan's own cache block.
    std::string cache_dir;
    std::size_t threads = 1;   ///< --threads per worker process
    std::uint64_t chunk_timeout_ms = 0;  ///< 0 = no per-chunk timeout
    /// Fault injection (tests/CI): SIGKILL the first-attempt child of
    /// this chunk shortly after spawn — a simulated worker crash.
    std::optional<std::size_t> inject_kill_chunk;
    /// Distributed observability (obs/distributed).  Non-empty
    /// `trace_dir`: every worker attempt runs with
    /// --trace-out into it and inherits a PARMIS_TRACE_PARENT context
    /// minted from `trace_id`/`job_id` at spawn time.  Non-empty
    /// `metrics_dir`: attempts dump --metrics-out shards into it.
    /// Both empty (the default) spawns byte-identical argv/env to an
    /// unobserved run — the digest-neutrality lever.
    std::string trace_dir;
    std::string metrics_dir;
    std::uint64_t trace_id = 0;
    std::uint64_t job_id = 0;
  };

  /// Checks the config only (cheap); the plan is resolved on the first
  /// chunk.
  explicit ProcessBackend(Config config);
  ~ProcessBackend() override;

  ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                         std::size_t attempt,
                         const std::atomic<bool>& abort) override;

 private:
  /// Resolves the plan and cache into replay_runner_ (once; failures
  /// leave replay off).
  void resolve_replay();
  /// Exit status of the chunk's worker process; `report_path` receives
  /// its --json output.
  int run_child(std::size_t index, std::size_t count, std::size_t attempt,
                const std::string& report_path,
                const std::atomic<bool>& abort) const;

  Config cfg_;
  std::once_flag resolve_once_;
  /// Set by resolve_replay when chunks can be replayed in process; the
  /// runner reads through replay_cache_, declared first to outlive it.
  std::unique_ptr<cache::ResultCache> replay_cache_;
  std::unique_ptr<exec::CampaignRunner> replay_runner_;
};

/// CampaignRunner-per-chunk backend for tests and benchmarks.
class InprocessBackend : public ChunkBackend {
 public:
  /// `base.shard` is overwritten per chunk; everything else (including
  /// a cache pointer) is used as-is.
  explicit InprocessBackend(exec::CampaignConfig base);

  ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                         std::size_t attempt,
                         const std::atomic<bool>& abort) override;

 private:
  exec::CampaignConfig base_;
};

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_BACKEND_HPP
