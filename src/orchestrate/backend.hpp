// Chunk execution backends: how a granted chunk actually runs.
//
// The scheduler (scheduler.hpp) is backend-agnostic; a chunk is "shard
// {index, count} of the campaign" and a backend turns that into a
// CampaignReport.  Two implementations:
//
//   - ProcessBackend: the production path.  Each chunk is one child
//     invocation of the existing campaign CLI with
//     `--shard-index/--shard-count --json` against a shared cache dir,
//     so workers are crash-isolated processes and every result goes
//     through the digest-verified report serde on the way back in.  On
//     a retry it first runs a `--require-cached` probe: if the failed
//     worker (or a concurrent duplicate) had already computed the
//     cells into the shared cache, the probe regenerates the chunk
//     report from cache without recomputing anything — the
//     failed-worker detection the lease table's retry path relies on.
//
//   - InprocessBackend: CampaignRunner in this process — hermetic unit
//     tests and scheduling-overhead benchmarks, no fork/exec noise.
//
// Both produce bit-identical chunk reports for the same plan (that is
// PR 5's sharding contract), so the scheduler's merged result never
// depends on which backend — or which worker — ran a chunk.
#ifndef PARMIS_ORCHESTRATE_BACKEND_HPP
#define PARMIS_ORCHESTRATE_BACKEND_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "exec/campaign.hpp"

namespace parmis::orchestrate {

/// Result of one chunk attempt.  `ok == false` sends the chunk back to
/// the lease table's retry path with `error`.
struct ChunkOutcome {
  bool ok = false;
  /// Retry satisfied by the --require-cached probe (no recompute).
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
    /// Shared result cache passed to every worker (--cache-dir); empty
    /// leaves caching to the plan's own cache block.  Required for the
    /// retry probe path.
    std::string cache_dir;
    std::size_t threads = 1;   ///< --threads per worker process
    std::uint64_t chunk_timeout_ms = 0;  ///< 0 = no per-chunk timeout
    /// Fault injection (tests/CI): SIGKILL the first-attempt child of
    /// this chunk shortly after spawn — a simulated worker crash.
    std::optional<std::size_t> inject_kill_chunk;
    /// Distributed observability (obs/distributed).  Non-empty
    /// `trace_dir`: every real (non-probe) attempt runs with
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

  explicit ProcessBackend(Config config);

  ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                         std::size_t attempt,
                         const std::atomic<bool>& abort) override;

 private:
  /// Exit status of one child run; `require_cached` turns it into the
  /// cache probe.  `report_path` receives --json output either way.
  int run_child(std::size_t index, std::size_t count, std::size_t attempt,
                bool require_cached, const std::string& report_path,
                const std::atomic<bool>& abort) const;

  Config cfg_;
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
