#include "orchestrate/scheduler.hpp"

#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/log.hpp"
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
    : backend_(backend), cfg_(std::move(config)) {
  require(cfg_.workers >= 1, "orchestrate: workers must be >= 1");
  require(cfg_.chunks >= 1, "orchestrate: chunk count must be >= 1");
  require(cfg_.max_attempts >= 1, "orchestrate: max attempts must be >= 1");
  tries_.assign(cfg_.chunks, 0);
  slots_.resize(cfg_.chunks);
}

LeaseTableStats JobRunner::stats_locked() const {
  LeaseTableStats stats;
  stats.chunks_total = cfg_.chunks;
  stats.chunks_done = stored_;
  stats.chunks_running = running_;
  stats.chunks_exhausted = exhausted_;
  stats.chunks_queued = cfg_.chunks - stored_ - exhausted_ - running_;
  stats.retries = retries_;
  return stats;
}

void JobRunner::export_gauges_locked() const {
#ifdef PARMIS_OBS_ENABLED
  // Per-job gauges need runtime names (the job id is in the prefix),
  // so this talks to the registry directly rather than through the
  // literal-name macros.  Gated like the macros: an OBS=OFF build
  // exports no orchestration metrics either.
  if (cfg_.obs_prefix.empty()) return;
  auto& registry = obs::Registry::instance();
  registry.gauge(cfg_.obs_prefix + "_chunks_total")
      .set(static_cast<std::int64_t>(cfg_.chunks));
  registry.gauge(cfg_.obs_prefix + "_chunks_done")
      .set(static_cast<std::int64_t>(stored_));
  registry.gauge(cfg_.obs_prefix + "_retries")
      .set(static_cast<std::int64_t>(retries_));
  registry.gauge(cfg_.obs_prefix + "_provisional_merges")
      .set(static_cast<std::int64_t>(stored_));
#endif
}

void JobRunner::store_locked(std::size_t chunk, exec::CampaignReport&& report) {
  // The checks report::merge would make, against any stored chunk: a
  // report that passes here is one the final strict merge accepts.
  const std::string who = "merge: chunk " + std::to_string(chunk) + ": ";
  const exec::CampaignReport* first = &report;
  for (const auto& slot : slots_) {
    if (slot != nullptr) {
      first = slot.get();
      break;
    }
  }
  report::check_shard_report(report, first->campaign_hash,
                             first->total_cells, cfg_.chunks, who);
  const std::size_t index = report.shard.index;
  require(slots_[index] == nullptr,
          "merge: shard " + std::to_string(index) +
              " appears more than once (overlap)");
  require(index == chunk, who + "carries shard " + std::to_string(index) +
                              ", not the chunk it was granted");
  slots_[index] = std::make_shared<exec::CampaignReport>(std::move(report));
  ++stored_;
  PARMIS_COUNTER_ADD("parmis_orch_provisional_merges_total", 1);
}

bool JobRunner::answer_locked(std::size_t chunk, std::size_t attempt,
                              ChunkOutcome& outcome) {
  --running_;
  if (outcome.ok) {
    // The merge span is the flow-chain terminus: the stitcher binds the
    // worker's execution back to the instant its report folded in.
    PARMIS_TRACE_SPAN_D("orch", "merge", "job=%llu;chunk=%llu",
                        static_cast<unsigned long long>(cfg_.job_id),
                        static_cast<unsigned long long>(chunk));
    try {
      store_locked(chunk, std::move(outcome.report));
    } catch (const std::exception& e) {
      // A chunk report the tiling checks reject (wrong campaign hash
      // after a plan edit race, bad tiling, a chunk stored twice) is a
      // failed attempt, not a scheduler crash.
      outcome.ok = false;
      outcome.error = std::string("cannot merge chunk: ") + e.what();
    }
  }
  AttemptRecord rec;
  rec.chunk = chunk;
  rec.attempt = attempt;
  rec.ok = outcome.ok;
  rec.recovered_from_cache = outcome.recovered_from_cache;
  rec.error = outcome.error;
  rec.log_path = outcome.log_path;
  rec.trace_path = outcome.trace_path;
  rec.metrics_path = outcome.metrics_path;
  attempts_.push_back(std::move(rec));
  if (outcome.ok) {
    if (outcome.recovered_from_cache) ++chunks_recovered_;
    PARMIS_COUNTER_ADD("parmis_orch_chunks_completed_total", 1);
  } else {
    PARMIS_COUNTER_ADD("parmis_orch_chunk_failures_total", 1);
    tries_[chunk] += 1;
    if (tries_[chunk] >= cfg_.max_attempts) {
      ++exhausted_;
      if (first_error_.empty()) {
        first_error_ = "chunk " + std::to_string(chunk) + " failed " +
                       std::to_string(tries_[chunk]) +
                       " times: " + outcome.error;
      }
    } else {
      retry_.push_back(chunk);
      ++retries_;
      PARMIS_COUNTER_ADD("parmis_orch_chunk_retries_total", 1);
    }
  }
  export_gauges_locked();
  cv_.notify_all();
  return outcome.ok;
}

void JobRunner::write_provisional() {
  if (cfg_.provisional_path.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  // The writer in flight re-checks for a newer state when it is done.
  if (provisional_writing_) return;
  provisional_writing_ = true;
  // A complete tiling is run()'s to write, from the final report's
  // bytes (see write_final).
  while (provisional_written_ < stored_ && stored_ < cfg_.chunks) {
    const std::size_t state = stored_;
    bool written = false;
    try {
      const std::vector<StoredReport> stored = stored_locked();
      lock.unlock();
      report::save_report(cfg_.provisional_path, merge_stored(stored));
      written = true;
    } catch (const std::exception& e) {
      Log(LogLevel::Warn) << "orchestrate: job " << cfg_.job_id
                          << ": provisional write failed: " << e.what();
    }
    if (!lock.owns_lock()) lock.lock();
    if (!written) {
      PARMIS_COUNTER_ADD("parmis_orch_provisional_write_failures_total", 1);
      break;  // the next stored chunk, or run(), tries again
    }
    provisional_written_ = state;
    ++provisional_writes_;
    PARMIS_COUNTER_ADD("parmis_orch_provisional_writes_total", 1);
  }
  provisional_writing_ = false;
}

std::optional<exec::CampaignReport> JobRunner::write_final(bool done) {
  // Every worker has returned: the slots no longer change, and no
  // provisional write is in flight.
  if (stored_ < cfg_.chunks) {
    write_provisional();  // writes the last state only if its write failed
    return std::nullopt;
  }
  // One strict merge, moved into from the slots, and at most one
  // serialization: the same bytes are the last provisional state and
  // the final report.  progress() keeps the slots' summary.
  std::vector<StoredReport> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    final_summary_ = summary_locked();
    slots = std::move(slots_);
    slots_.clear();
  }
  std::vector<exec::CampaignReport> inputs;
  inputs.reserve(slots.size());
  for (StoredReport& slot : slots) {
    // A provisional() caller may still be merging a copy of the slot;
    // nobody can take a new one now.
    if (slot.use_count() == 1) {
      inputs.push_back(std::move(*slot));
    } else {
      inputs.push_back(*slot);
    }
  }
  report::MergeOptions strict;
  strict.strict = true;
  exec::CampaignReport merged = report::merge(std::move(inputs), strict);
  const bool write_final_file = done && !cfg_.final_path.empty();
  if (cfg_.provisional_path.empty() && !write_final_file) return merged;
  std::ostringstream os;
  report::write_report(os, merged);
  const std::string bytes = os.str();
  if (!cfg_.provisional_path.empty()) {
    bool written = false;
    try {
      atomic_write_file(cfg_.provisional_path, bytes);
      written = true;
    } catch (const std::exception& e) {
      Log(LogLevel::Warn) << "orchestrate: job " << cfg_.job_id
                          << ": provisional write failed: " << e.what();
      PARMIS_COUNTER_ADD("parmis_orch_provisional_write_failures_total", 1);
    }
    if (written) {
      std::lock_guard<std::mutex> lock(mu_);
      provisional_written_ = stored_;
      ++provisional_writes_;
      PARMIS_COUNTER_ADD("parmis_orch_provisional_writes_total", 1);
    }
  }
  if (write_final_file) atomic_write_file(cfg_.final_path, bytes);
  return merged;
}

std::vector<JobRunner::StoredReport> JobRunner::stored_locked() const {
  std::vector<StoredReport> stored;
  for (const auto& slot : slots_) {
    if (slot != nullptr) stored.push_back(slot);
  }
  return stored;
}

exec::CampaignReport JobRunner::merge_stored(
    const std::vector<StoredReport>& stored) {
  std::vector<exec::CampaignReport> inputs;
  inputs.reserve(stored.size());
  for (const auto& report : stored) inputs.push_back(*report);
  report::MergeOptions options;
  options.strict = false;
  return report::merge(std::move(inputs), options);
}

JobRunner::SlotSummary JobRunner::summary_locked() const {
  if (final_summary_.has_value()) return *final_summary_;
  // A merge concatenates the slots in index order, so chaining their
  // digests gives the merged digest without the merge.
  SlotSummary summary;
  for (const auto& slot : slots_) {
    if (slot == nullptr) continue;
    summary.digest = exec::digest_cells(summary.digest, slot->cells);
    summary.cells += slot->cells.size();
    summary.total_cells = slot->total_cells;
  }
  return summary;
}

void JobRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // With every undone chunk in flight, wait for an answer.
    cv_.wait(lock, [&] {
      return abort_.load() || stored_ + exhausted_ == cfg_.chunks ||
             !retry_.empty() || fresh_next_ < cfg_.chunks;
    });
    if (abort_.load() || stored_ + exhausted_ == cfg_.chunks) return;
    // Requeued retries first, then fresh chunks in index order.
    std::size_t chunk = fresh_next_;
    if (!retry_.empty()) {
      chunk = retry_.front();
      retry_.pop_front();
    } else {
      ++fresh_next_;
    }
    const std::size_t attempt = tries_[chunk];
    ++running_;
    lock.unlock();
    ChunkOutcome outcome;
    {
      // Grant-to-completion span; its "job=N;chunk=K;attempt=A"
      // detail is the key the stitcher matches worker shards against.
      PARMIS_TRACE_SPAN_D(
          "orch", "chunk", "job=%llu;chunk=%llu;attempt=%llu",
          static_cast<unsigned long long>(cfg_.job_id),
          static_cast<unsigned long long>(chunk),
          static_cast<unsigned long long>(attempt));
      outcome = backend_.run_chunk(chunk, cfg_.chunks, attempt, abort_);
    }
    lock.lock();
    const bool stored = answer_locked(chunk, attempt, outcome);
    lock.unlock();
    if (cfg_.on_progress) cfg_.on_progress();
    // After the chunk is answered, so a slow write delays no progress.
    if (stored) write_provisional();
    lock.lock();
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
  std::optional<exec::CampaignReport> merged;
  std::string write_error;
  try {
    // No worker is left to change the queue; cancel() may still run.
    merged = write_final(!spawn_error.has_value() && !abort_.load() &&
                         exhausted_ == 0);
  } catch (const std::exception& e) {
    write_error = e.what();
  }

  std::lock_guard<std::mutex> lock(mu_);
  wall_s_ = clock.seconds();
  if (spawn_error.has_value()) {
    state_ = JobProgress::State::Failed;
    error_ = "cannot start worker threads: " + *spawn_error;
    export_gauges_locked();
    require(false, "orchestrate: job failed: " + error_);
  }
  if (abort_.load()) {
    state_ = JobProgress::State::Cancelled;
    error_ = "job cancelled";
    export_gauges_locked();
    require(false, "orchestrate: job cancelled");
  }
  if (exhausted_ > 0) {
    state_ = JobProgress::State::Failed;
    error_ = first_error_;
    export_gauges_locked();
    require(false, "orchestrate: job failed: " + error_);
  }
  if (!write_error.empty()) {
    state_ = JobProgress::State::Failed;
    error_ = "cannot write the final report: " + write_error;
    export_gauges_locked();
    require(false, "orchestrate: job failed: " + error_);
  }
  require(merged.has_value(),
          "orchestrate: internal error: job drained without a complete "
          "tiling");
  state_ = JobProgress::State::Done;
  export_gauges_locked();
  return std::move(*merged);
}

void JobRunner::cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  abort_.store(true);
  cv_.notify_all();
}

JobProgress JobRunner::progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  JobProgress out;
  out.state = state_;
  out.stats = stats_locked();
  out.workers = cfg_.workers;
  out.provisional_merges = stored_;
  out.provisional_writes = provisional_writes_;
  out.chunks_recovered = chunks_recovered_;
  if (stored_ > 0) {
    const SlotSummary summary = summary_locked();
    out.has_report = true;
    out.report_digest = summary.digest;
    out.report_cells = summary.cells;
    out.total_cells = summary.total_cells;
    out.report_partial = stored_ < cfg_.chunks;
    out.cells_done = summary.cells;
  }
  out.wall_s = wall_s_;
  // Throughput and ETA, from the stored chunks.  While the
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
  out.error = !error_.empty() ? error_ : first_error_;
  return out;
}

std::optional<exec::CampaignReport> JobRunner::provisional() const {
  std::vector<StoredReport> stored;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stored = stored_locked();
  }
  if (stored.empty()) return std::nullopt;
  return merge_stored(stored);
}

}  // namespace parmis::orchestrate
