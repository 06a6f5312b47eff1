#include "orchestrate/scheduler.hpp"

#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"

namespace parmis::orchestrate {

const char* job_state_name(JobProgress::State state) {
  switch (state) {
    case JobProgress::State::Pending:
      return "pending";
    case JobProgress::State::Running:
      return "running";
    case JobProgress::State::Done:
      return "done";
    case JobProgress::State::Failed:
      return "failed";
    case JobProgress::State::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

JobRunner::JobRunner(ChunkBackend& backend, JobConfig config)
    : backend_(backend),
      cfg_(std::move(config)),
      table_({cfg_.chunks, cfg_.max_attempts, cfg_.lease_timeout_ms}) {
  require(cfg_.workers >= 1, "orchestrate: workers must be >= 1");
}

void JobRunner::export_gauges_locked() const {
#ifdef PARMIS_OBS_ENABLED
  // Per-job gauges need runtime names (the job id is in the prefix),
  // so this talks to the registry directly rather than through the
  // literal-name macros.  Gated like the macros: an OBS=OFF build
  // exports no orchestration metrics either.
  if (cfg_.obs_prefix.empty()) return;
  auto& registry = obs::Registry::instance();
  const LeaseTableStats stats = table_.stats();
  registry.gauge(cfg_.obs_prefix + "_chunks_total")
      .set(static_cast<std::int64_t>(stats.chunks_total));
  registry.gauge(cfg_.obs_prefix + "_chunks_done")
      .set(static_cast<std::int64_t>(stats.chunks_done));
  registry.gauge(cfg_.obs_prefix + "_retries")
      .set(static_cast<std::int64_t>(stats.retries));
  registry.gauge(cfg_.obs_prefix + "_provisional_merges")
      .set(static_cast<std::int64_t>(provisional_merges_));
#endif
}

void JobRunner::fold_in(std::size_t chunk, exec::CampaignReport&& report) {
  // The merge span is the flow-chain terminus: the stitcher binds the
  // worker's execution back to the instant its report folded in.
  PARMIS_TRACE_SPAN_D("orch", "merge", "job=%llu;chunk=%llu",
                      static_cast<unsigned long long>(cfg_.job_id),
                      static_cast<unsigned long long>(chunk));
  std::lock_guard<std::mutex> lock(mu_);
  // A stale grant can complete a chunk that a retry already merged;
  // merging it twice would (correctly) trip the overlap check, so
  // duplicates are dropped here — the bytes are identical anyway.
  if (!merged_chunks_.insert(chunk).second) return;
  report::MergeOptions lax;
  lax.strict = false;
  std::vector<exec::CampaignReport> inputs;
  if (provisional_.has_value()) inputs.push_back(std::move(*provisional_));
  inputs.push_back(std::move(report));
  provisional_ = report::merge(std::move(inputs), lax);
  ++provisional_merges_;
  PARMIS_COUNTER_ADD("parmis_orch_provisional_merges_total", 1);
  if (!cfg_.provisional_path.empty()) {
    report::save_report(cfg_.provisional_path, *provisional_);
  }
}

void JobRunner::worker_loop() {
  while (auto grant = table_.next()) {
    ChunkOutcome outcome;
    {
      // Grant-to-completion span; its "job=N;chunk=K;attempt=A"
      // detail is the key the stitcher matches worker shards against.
      PARMIS_TRACE_SPAN_D(
          "orch", "chunk", "job=%llu;chunk=%llu;attempt=%llu",
          static_cast<unsigned long long>(cfg_.job_id),
          static_cast<unsigned long long>(grant->chunk),
          static_cast<unsigned long long>(grant->attempt));
      outcome = backend_.run_chunk(grant->chunk, cfg_.chunks,
                                   grant->attempt, abort_);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      AttemptRecord rec;
      rec.chunk = grant->chunk;
      rec.attempt = grant->attempt;
      rec.ok = outcome.ok;
      rec.recovered_from_cache = outcome.recovered_from_cache;
      rec.error = outcome.error;
      rec.log_path = outcome.log_path;
      rec.trace_path = outcome.trace_path;
      rec.metrics_path = outcome.metrics_path;
      attempts_.push_back(std::move(rec));
    }
    if (outcome.ok) {
      try {
        fold_in(grant->chunk, std::move(outcome.report));
      } catch (const std::exception& e) {
        // A chunk report the merge rejects (wrong campaign hash after
        // a plan edit race, bad tiling) is a failed attempt, not a
        // scheduler crash.
        table_.fail(*grant, std::string("merge rejected chunk: ") +
                                e.what());
        continue;
      }
      if (outcome.recovered_from_cache) {
        std::lock_guard<std::mutex> lock(mu_);
        ++chunks_recovered_;
      }
      table_.complete(*grant);
      PARMIS_COUNTER_ADD("parmis_orch_chunks_completed_total", 1);
    } else {
      table_.fail(*grant, outcome.error);
      PARMIS_COUNTER_ADD("parmis_orch_chunk_failures_total", 1);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      export_gauges_locked();
    }
  }
}

exec::CampaignReport JobRunner::run() {
  const Stopwatch clock;
  {
    std::lock_guard<std::mutex> lock(mu_);
    require(state_ == JobProgress::State::Pending,
            "orchestrate: job already ran");
    state_ = JobProgress::State::Running;
    start_steady_ns_ = steady_now_ns();
    export_gauges_locked();
  }
  PARMIS_GAUGE_SET("parmis_orch_workers_active",
                   static_cast<std::int64_t>(cfg_.workers));
  // A pool the OS refuses to grow is cancelled and joined, never left
  // with joinable threads (std::terminate) or a job stuck Running.
  std::optional<std::string> spawn_error;
  std::vector<std::thread> pool;
  try {
    pool.reserve(cfg_.workers);
    for (std::size_t slot = 0; slot < cfg_.workers; ++slot) {
      pool.emplace_back(&JobRunner::worker_loop, this);
    }
  } catch (const std::exception& e) {
    spawn_error = e.what();
    cancel();
  }
  for (auto& t : pool) t.join();
  PARMIS_GAUGE_SET("parmis_orch_workers_active", 0);

  std::lock_guard<std::mutex> lock(mu_);
  wall_s_ = clock.seconds();
  if (spawn_error.has_value()) {
    state_ = JobProgress::State::Failed;
    error_ = "cannot start worker threads: " + *spawn_error;
    export_gauges_locked();
    require(false, "orchestrate: job failed: " + error_);
  }
  if (table_.cancelled()) {
    state_ = JobProgress::State::Cancelled;
    error_ = "job cancelled";
    export_gauges_locked();
    require(false, "orchestrate: job cancelled");
  }
  if (table_.failed()) {
    state_ = JobProgress::State::Failed;
    error_ = table_.first_error();
    export_gauges_locked();
    require(false, "orchestrate: job failed: " + error_);
  }
  require(provisional_.has_value() && !provisional_->partial,
          "orchestrate: internal error: job drained without a complete "
          "merge");
  state_ = JobProgress::State::Done;
  export_gauges_locked();
  return *provisional_;
}

void JobRunner::cancel() {
  abort_.store(true);
  table_.cancel();
}

JobProgress JobRunner::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobProgress out;
  out.state = state_;
  out.stats = table_.stats();
  out.workers = cfg_.workers;
  out.provisional_merges = provisional_merges_;
  out.chunks_recovered = chunks_recovered_;
  if (provisional_.has_value()) {
    out.has_report = true;
    out.report_digest = provisional_->objectives_digest();
    out.report_cells = provisional_->cells.size();
    out.report_partial = provisional_->partial;
    out.cells_done = provisional_->cells.size();
    out.total_cells = provisional_->total_cells;
  }
  out.wall_s = wall_s_;
  // Throughput and ETA, from the provisional merge stream.  While the
  // job runs, the clock is "now - start"; afterwards it is the final
  // wall time, so cells_per_s settles to the job's true average.
  const double elapsed_s =
      state_ == JobProgress::State::Running && start_steady_ns_ != 0
          ? static_cast<double>(steady_now_ns() - start_steady_ns_) / 1e9
          : wall_s_;
  if (elapsed_s > 0.0 && out.cells_done > 0) {
    out.cells_per_s = static_cast<double>(out.cells_done) / elapsed_s;
  }
  if (state_ == JobProgress::State::Running && out.cells_per_s > 0.0 &&
      out.total_cells > out.cells_done) {
    out.eta_s = static_cast<double>(out.total_cells - out.cells_done) /
                out.cells_per_s;
  }
  out.attempts = attempts_;
  out.error = !error_.empty() ? error_ : table_.first_error();
  return out;
}

std::optional<exec::CampaignReport> JobRunner::provisional() const {
  std::lock_guard<std::mutex> lock(mu_);
  return provisional_;
}

}  // namespace parmis::orchestrate
