#include "orchestrate/protocol.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "obs/distributed.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "orchestrate/subprocess.hpp"
#include "report/report_json.hpp"
#include "serde/json_util.hpp"

namespace parmis::orchestrate {

namespace {

bool blank(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::optional<std::size_t> optional_size(serde::ObjectReader& reader,
                                         const std::string& key) {
  const json::Value* v = reader.optional_key(key);
  if (v == nullptr) return std::nullopt;
  return static_cast<std::size_t>(reader.as_u64(*v, key));
}

std::size_t count_flag(const CliArgs& args, const std::string& key,
                       int fallback) {
  const int value = args.get_int(key, fallback);
  require(value >= 0, "--" + key + " must not be negative (got " +
                          std::to_string(value) + ")");
  return static_cast<std::size_t>(value);
}

std::uint64_t millis_flag(const CliArgs& args, const std::string& key) {
  const double seconds = args.get_double(key, 0.0);
  require(seconds >= 0.0, "--" + key + " must not be negative");
  return static_cast<std::uint64_t>(seconds * 1000.0);
}

/// Paths in `dir` ending in `suffix`, re-sorted lexicographically —
/// list_files orders by mtime, which is not deterministic enough for
/// shard stitching (equal shard sets must stitch to equal bytes).
std::vector<std::string> sorted_shard_paths(const std::string& dir,
                                            const std::string& suffix) {
  std::vector<std::string> paths;
  for (const FileInfo& f : list_files(dir, suffix)) paths.push_back(f.path);
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

// ------------------------------------------------------------ JobManager

JobManager::JobManager(Defaults defaults) : defaults_(std::move(defaults)) {
  require(defaults_.workers >= 1, "orchestrate: workers must be >= 1");
  require(defaults_.max_attempts >= 1,
          "orchestrate: max_attempts must be >= 1");
  require(!defaults_.work_dir.empty(), "orchestrate: no work dir");
}

JobManager::~JobManager() { shutdown(); }

JobManager::JobInfo JobManager::submit(const serde::CampaignPlan& plan,
                                       const SubmitOptions& options) {
  // Orchestration supersedes any shard slice the plan carries: chunk k
  // *is* shard {k, M} of the full campaign, so a pre-sharded plan would
  // orchestrate a slice of a slice.  The slice is dropped and the whole
  // campaign tiled — which is also what the digest contract compares
  // against (an unsharded single-process run).
  serde::CampaignPlan effective = plan;
  effective.shard.reset();
  effective.validate();

  // Resolve the plan up front against a fresh catalogue (inline specs
  // registered alongside the built-ins, same as the campaign CLI), so a
  // broken plan fails this submit instead of every worker later.
  serde::ScenarioCatalogue catalogue;
  for (const serde::ScenarioRef& ref : effective.scenarios) {
    if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
  }
  const exec::CampaignConfig config =
      serde::to_campaign_config(effective, catalogue);
  const std::size_t total_cells =
      exec::CampaignRunner(config).probe_cache().second;
  require(total_cells >= 1, "orchestrate: plan has no cells");

  std::size_t workers = options.workers.value_or(defaults_.workers);
  require(workers >= 1, "orchestrate: workers must be >= 1");
  std::size_t chunks = options.chunks.value_or(defaults_.chunks);
  if (chunks == 0) {
    // 4 per worker, spelled so a huge pool cannot overflow.
    chunks = workers <= total_cells / 4 ? 4 * workers : total_cells;
  }
  chunks = std::min(chunks, total_cells);
  workers = std::min(workers, chunks);
  const std::size_t max_attempts =
      options.max_attempts.value_or(defaults_.max_attempts);
  require(max_attempts >= 1, "orchestrate: max_attempts must be >= 1");

  std::lock_guard<std::mutex> lock(mu_);
  require(!shut_down_, "orchestrate: manager is shutting down");
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->tag = options.tag;
  job->chunks = chunks;
  job->total_cells = total_cells;
  job->job_dir = defaults_.work_dir + "/job" + std::to_string(job->id);
  job->provisional_path = job->job_dir + "/provisional.json";
  job->final_path = job->job_dir + "/final.json";
  make_directories(job->job_dir);

  job->trace = options.trace.value_or(defaults_.trace);
  if (job->trace) {
    job->trace_dir = job->job_dir + "/trace";
    job->metrics_dir = job->job_dir + "/metrics";
    make_directories(job->trace_dir);
    make_directories(job->metrics_dir);
    job->stitched_trace_path = job->job_dir + "/stitched_trace.json";
    job->metrics_rollup_path = job->job_dir + "/metrics_rollup.json";
    // Campaign-wide trace identity: wall time scrambled with the job id
    // — unique enough for shard correlation, which is all it is for.
    job->trace_id = wall_now_ns() ^ (job->id * 0x9E3779B97F4A7C15ULL);
    // The orchestrator's own spans ride the process-wide tracer; arm it
    // so a traced job under an otherwise-untraced daemon still records
    // its chunk/merge lane.  Harmless to digests by the neutrality
    // contract, and never turned back off (other jobs may be traced).
    obs::Tracer::set_enabled(true);
  }

  // Snapshot the plan into the job dir: workers read this copy, so a
  // caller mutating or deleting the original mid-job cannot skew the
  // tiling (the merge's campaign-hash check would catch it anyway).
  const std::string plan_path = job->job_dir + "/plan.json";
  serde::save_plan(plan_path, effective);

  ProcessBackend::Config process;
  process.campaign_bin = defaults_.campaign_bin;
  process.plan_path = plan_path;
  process.work_dir = job->job_dir;
  process.cache_dir = !defaults_.cache_dir.empty() ? defaults_.cache_dir
                                                   : effective.cache.dir;
  process.threads = defaults_.threads_per_worker;
  process.chunk_timeout_ms = defaults_.chunk_timeout_ms;
  process.inject_kill_chunk = defaults_.inject_kill_chunk;
  process.trace_dir = job->trace_dir;
  process.metrics_dir = job->metrics_dir;
  process.trace_id = job->trace_id;
  process.job_id = job->id;
  job->backend =
      defaults_.backend_factory
          ? defaults_.backend_factory(effective, job->job_dir, process)
          : std::make_unique<ProcessBackend>(process);

  JobConfig jc;
  jc.workers = workers;
  jc.chunks = chunks;
  jc.max_attempts = max_attempts;
  jc.lease_timeout_ms = defaults_.lease_timeout_ms;
  jc.provisional_path = job->provisional_path;
  jc.obs_prefix = "parmis_orch_job" + std::to_string(job->id);
  jc.job_id = job->id;
  job->runner = std::make_unique<JobRunner>(*job->backend, jc);

  Job* raw = job.get();  // map nodes are stable; jobs are never erased
  job->thread = std::thread([this, raw] {
    try {
      exec::CampaignReport report = raw->runner->run();
      report::save_report(raw->final_path, report);
    } catch (const std::exception&) {
      // Failure/cancellation details live in the runner's progress().
    }
    // Shard collection runs however the job settled: a failed job's
    // trace is exactly the one worth looking at.
    if (raw->trace) finalize_observability(*raw);
  });
  PARMIS_COUNTER_ADD("parmis_orch_jobs_submitted_total", 1);

  JobInfo info = info_locked(*raw);
  jobs_.emplace(raw->id, std::move(job));
  return info;
}

void JobManager::finalize_observability(Job& job) {
  // Trace stitching.  The orchestrator shard drains this process's
  // tracer (chunk/merge spans, tagged with the job's context) and is
  // always stitched first; worker shards follow in sorted-path order so
  // equal shard sets stitch to equal bytes.
  try {
    obs::TraceContext ctx;
    ctx.trace_id = job.trace_id;
    ctx.job = job.id;
    json::Value orch = obs::drained_trace_with_context("orchestrator", &ctx);
    const std::string orch_path = job.trace_dir + "/orchestrator.json";
    atomic_write_file(orch_path, json::dump(orch));
    std::vector<json::Value> shards;
    shards.push_back(std::move(orch));
    for (const std::string& path :
         sorted_shard_paths(job.trace_dir, ".json")) {
      if (path == orch_path) continue;
      const std::optional<std::string> text = read_file(path);
      if (!text.has_value()) continue;
      try {
        shards.push_back(json::parse(*text));
      } catch (const std::exception&) {
        // A killed worker can leave a torn shard; stitch what's whole.
      }
    }
    atomic_write_file(job.stitched_trace_path,
                      json::dump(obs::stitch_traces(shards)));
  } catch (const std::exception&) {
    // Best-effort: a job is never failed by its observability.
  }

  // Metrics rollup: merge worker shards into the job-level document,
  // then fold the rollup's counters/histograms into the daemon-level
  // registry so the `metrics` verb and Prometheus text see fleet totals.
  try {
    std::vector<json::Value> shards;
    for (const std::string& path :
         sorted_shard_paths(job.metrics_dir, ".json")) {
      const std::optional<std::string> text = read_file(path);
      if (!text.has_value()) continue;
      try {
        shards.push_back(json::parse(*text));
      } catch (const std::exception&) {
      }
    }
    const json::Value rollup = obs::merge_metrics(shards);
    atomic_write_file(job.metrics_rollup_path, json::dump(rollup));
    obs::fold_metrics_into_registry(rollup, obs::Registry::instance());
  } catch (const std::exception&) {
  }
}

JobManager::JobInfo JobManager::info_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.tag = job.tag;
  info.progress = job.runner->progress();
  info.chunks = job.chunks;
  info.total_cells = job.total_cells;
  info.job_dir = job.job_dir;
  info.provisional_path = job.provisional_path;
  info.final_path = job.final_path;
  info.trace = job.trace;
  info.stitched_trace_path = job.stitched_trace_path;
  info.metrics_rollup_path = job.metrics_rollup_path;
  return info;
}

std::optional<JobManager::JobInfo> JobManager::info(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return info_locked(*it->second);
}

bool JobManager::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const JobProgress::State state = it->second->runner->progress().state;
  if (state != JobProgress::State::Pending &&
      state != JobProgress::State::Running) {
    return false;  // already settled
  }
  it->second->runner->cancel();
  return true;
}

std::vector<JobManager::JobInfo> JobManager::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(info_locked(*job));
  return out;
}

void JobManager::shutdown() {
  std::vector<Job*> running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
    for (auto& [id, job] : jobs_) running.push_back(job.get());
  }
  // Cancel + join outside the lock so status queries from other
  // sessions stay responsive while jobs wind down.
  for (Job* job : running) job->runner->cancel();
  for (Job* job : running) {
    if (job->thread.joinable()) job->thread.join();
  }
}

JobManager::Defaults defaults_from_flags(const CliArgs& args,
                                         const std::string& argv0,
                                         const std::string& work_dir) {
  JobManager::Defaults defaults;
  defaults.workers = count_flag(args, "workers", 3);
  defaults.chunks = count_flag(args, "chunks", 0);
  defaults.max_attempts = count_flag(args, "max-attempts", 3);
  defaults.threads_per_worker = count_flag(args, "threads", 1);
  defaults.work_dir = args.get("work-dir", work_dir);
  defaults.campaign_bin =
      args.get("campaign-bin", sibling_binary(argv0, "campaign"));
  defaults.cache_dir = args.get("cache-dir", "");
  defaults.lease_timeout_ms = millis_flag(args, "lease-timeout-s");
  defaults.chunk_timeout_ms = millis_flag(args, "chunk-timeout-s");
  if (args.has("inject-kill-chunk")) {
    defaults.inject_kill_chunk = count_flag(args, "inject-kill-chunk", 0);
  }
  defaults.trace = args.get_bool("trace", false);
  return defaults;
}

// ------------------------------------------------------------ OrchSession

OrchSession::OrchSession(JobManager& manager) : manager_(&manager) {}

json::Value OrchSession::job_body(const JobManager::JobInfo& info) const {
  const JobProgress& p = info.progress;
  json::Value body = json::Value::object();
  body.set("job", serde::u64_to_json(info.id));
  if (!info.tag.empty()) body.set("tag", json::Value::string(info.tag));
  body.set("state", json::Value::string(job_state_name(p.state)));
  body.set("workers", serde::u64_to_json(p.workers));
  body.set("total_cells", serde::u64_to_json(info.total_cells));
  body.set("chunks", serde::u64_to_json(info.chunks));
  body.set("chunks_done", serde::u64_to_json(p.stats.chunks_done));
  body.set("chunks_running", serde::u64_to_json(p.stats.chunks_running));
  body.set("chunks_queued", serde::u64_to_json(p.stats.chunks_queued));
  body.set("chunks_exhausted",
           serde::u64_to_json(p.stats.chunks_exhausted));
  body.set("retries", serde::u64_to_json(p.stats.retries));
  body.set("expiries", serde::u64_to_json(p.stats.expiries));
  body.set("provisional_merges",
           serde::u64_to_json(p.provisional_merges));
  body.set("chunks_recovered", serde::u64_to_json(p.chunks_recovered));
  if (p.has_report) {
    body.set("cells_merged", serde::u64_to_json(p.report_cells));
    body.set("digest", json::Value::string(hex64(p.report_digest)));
    body.set("partial", json::Value::boolean(p.report_partial));
  }
  // Live throughput from the provisional merge stream (status verb's
  // progress estimator; see scheduler.hpp JobProgress).
  if (p.cells_per_s > 0.0) {
    body.set("cells_per_s", json::Value::number(p.cells_per_s));
  }
  if (p.eta_s > 0.0) {
    body.set("eta_s", json::Value::number(p.eta_s));
  }
  if (p.state != JobProgress::State::Pending &&
      p.state != JobProgress::State::Running) {
    body.set("wall_s", json::Value::number(p.wall_s));
  }
  if (!p.error.empty()) {
    body.set("error", json::Value::string(p.error));
  }
  return body;
}

json::Value OrchSession::dispatch(const json::Value& doc, std::string* op,
                                  json::Value* id, bool* quit) {
  serde::ObjectReader reader(doc, "request");
  *op = reader.get_string("op");
  if (const json::Value* given = reader.optional_key("id")) {
    require(given->is_string() || given->is_number(),
            "request: \"id\" must be a string or number");
    *id = *given;
  }

  const auto job_or_throw = [&](std::uint64_t job_id) {
    std::optional<JobManager::JobInfo> info = manager_->info(job_id);
    require(info.has_value(),
            "request: no such job " + std::to_string(job_id));
    return *info;
  };

  json::Value body = json::Value::object();
  if (*op == "submit") {
    PARMIS_COUNTER_ADD("parmis_orch_op_submit_total", 1);
    serde::CampaignPlan plan;
    if (const json::Value* inline_plan = reader.optional_key("plan")) {
      require(reader.optional_key("plan_path") == nullptr,
              "request: give \"plan\" or \"plan_path\", not both");
      plan = serde::plan_from_json(*inline_plan, "request: plan");
    } else {
      plan = serde::load_plan(reader.get_string("plan_path"));
    }
    JobManager::SubmitOptions options;
    options.workers = optional_size(reader, "workers");
    options.chunks = optional_size(reader, "chunks");
    options.max_attempts = optional_size(reader, "max_attempts");
    options.tag = reader.get_string("tag", "");
    if (const json::Value* trace = reader.optional_key("trace")) {
      require(trace->is_bool(), "request: \"trace\" must be a bool");
      options.trace = trace->as_bool();
    }
    reader.finish();
    body = job_body(manager_->submit(plan, options));
  } else if (*op == "status") {
    PARMIS_COUNTER_ADD("parmis_orch_op_status_total", 1);
    const std::uint64_t job_id = reader.get_u64("job");
    reader.finish();
    body = job_body(job_or_throw(job_id));
  } else if (*op == "results") {
    PARMIS_COUNTER_ADD("parmis_orch_op_results_total", 1);
    const std::uint64_t job_id = reader.get_u64("job");
    reader.finish();
    const JobManager::JobInfo info = job_or_throw(job_id);
    const JobProgress& p = info.progress;
    require(p.has_report, "request: job " + std::to_string(job_id) +
                              " has no report yet");
    const bool is_final = p.state == JobProgress::State::Done;
    body.set("job", serde::u64_to_json(info.id));
    body.set("state", json::Value::string(job_state_name(p.state)));
    body.set("final", json::Value::boolean(is_final));
    body.set("path", json::Value::string(is_final ? info.final_path
                                                  : info.provisional_path));
    body.set("cells", serde::u64_to_json(p.report_cells));
    body.set("digest", json::Value::string(hex64(p.report_digest)));
    body.set("partial", json::Value::boolean(p.report_partial));
    // Per-attempt audit trail: which worker ran what, how it went, and
    // where its log / trace shard / metrics shard landed (empty-path
    // fields are omitted — in-process backends have no artifacts).
    json::Value attempts = json::Value::array();
    for (const AttemptRecord& a : p.attempts) {
      json::Value rec = json::Value::object();
      rec.set("chunk", serde::u64_to_json(a.chunk));
      rec.set("attempt", serde::u64_to_json(a.attempt));
      rec.set("ok", json::Value::boolean(a.ok));
      if (a.recovered_from_cache) {
        rec.set("recovered_from_cache", json::Value::boolean(true));
      }
      if (!a.error.empty()) {
        rec.set("error", json::Value::string(a.error));
      }
      if (!a.log_path.empty()) {
        rec.set("log", json::Value::string(a.log_path));
      }
      if (!a.trace_path.empty()) {
        rec.set("trace", json::Value::string(a.trace_path));
      }
      if (!a.metrics_path.empty()) {
        rec.set("metrics", json::Value::string(a.metrics_path));
      }
      attempts.push_back(std::move(rec));
    }
    body.set("attempts", std::move(attempts));
    if (!info.stitched_trace_path.empty()) {
      body.set("stitched_trace",
               json::Value::string(info.stitched_trace_path));
    }
    if (!info.metrics_rollup_path.empty()) {
      body.set("metrics_rollup",
               json::Value::string(info.metrics_rollup_path));
    }
  } else if (*op == "cancel") {
    PARMIS_COUNTER_ADD("parmis_orch_op_cancel_total", 1);
    const std::uint64_t job_id = reader.get_u64("job");
    reader.finish();
    const JobManager::JobInfo info = job_or_throw(job_id);
    const bool cancelled = manager_->cancel(info.id);
    body.set("job", serde::u64_to_json(info.id));
    body.set("cancelled", json::Value::boolean(cancelled));
    if (!cancelled) {
      body.set("state", json::Value::string(
                            job_state_name(info.progress.state)));
    }
  } else if (*op == "jobs") {
    PARMIS_COUNTER_ADD("parmis_orch_op_jobs_total", 1);
    reader.finish();
    json::Value list = json::Value::array();
    for (const JobManager::JobInfo& info : manager_->jobs()) {
      list.push_back(job_body(info));
    }
    body.set("jobs", std::move(list));
  } else if (*op == "ping") {
    PARMIS_COUNTER_ADD("parmis_orch_op_ping_total", 1);
    reader.finish();
    body.set("protocol", json::Value::string(kOrchProtocol));
    body.set("uptime_s", json::Value::number(uptime_.seconds()));
    body.set("jobs", serde::u64_to_json(manager_->jobs().size()));
    const JobManager::Defaults& d = manager_->defaults();
    json::Value defaults = json::Value::object();
    defaults.set("workers", serde::u64_to_json(d.workers));
    defaults.set("chunks", serde::u64_to_json(d.chunks));
    defaults.set("max_attempts", serde::u64_to_json(d.max_attempts));
    body.set("defaults", std::move(defaults));
  } else if (*op == "metrics") {
    PARMIS_COUNTER_ADD("parmis_orch_op_metrics_total", 1);
    const std::string format = reader.get_string("format", "json");
    const json::Value* job_key = reader.optional_key("job");
    reader.finish();
    if (job_key != nullptr) {
      // Job-level rollup: the merged worker shards written at job end
      // (submit with "trace":true), served back as parmis-metrics-v1.
      const std::uint64_t job_id = reader.as_u64(*job_key, "job");
      const JobManager::JobInfo info = job_or_throw(job_id);
      require(format == "json",
              "request: per-job metrics are served as \"json\" only");
      require(!info.metrics_rollup_path.empty(),
              "request: job " + std::to_string(job_id) +
                  " was not submitted with \"trace\":true");
      const std::optional<std::string> text =
          read_file(info.metrics_rollup_path);
      require(text.has_value(),
              "request: job " + std::to_string(job_id) +
                  " rollup not written yet (job still running?)");
      body.set("job", serde::u64_to_json(job_id));
      body.set("metrics", json::parse(*text));
    } else if (format == "prometheus") {
      body.set("format", json::Value::string("prometheus"));
      body.set("text", json::Value::string(
                           obs::Registry::instance().to_prometheus()));
    } else {
      require(format == "json",
              "request: metrics \"format\" must be \"json\" or "
              "\"prometheus\"");
      body.set("metrics", obs::Registry::instance().to_json());
    }
  } else if (*op == "quit") {
    PARMIS_COUNTER_ADD("parmis_orch_op_quit_total", 1);
    reader.finish();
    *quit = true;
  } else {
    require(false,
            "request: unknown op \"" + *op +
                "\" (known: cancel, jobs, metrics, ping, quit, results, "
                "status, submit)");
  }
  return body;
}

serve::LineOutcome OrchSession::handle_line(const std::string& line) {
  if (blank(line)) return {};
  PARMIS_SCOPED_LATENCY("parmis_orch_request_ns");

  std::string op;
  json::Value id;
  json::Value envelope = json::Value::object();
  bool quit = false;
  try {
    const json::Value doc = json::parse(line);
    json::Value body = dispatch(doc, &op, &id, &quit);
    envelope.set("ok", json::Value::boolean(true));
    envelope.set("op", json::Value::string(op));
    if (!id.is_null()) envelope.set("id", id);
    for (auto& [key, value] : body.members()) {
      envelope.set(key, value);
    }
  } catch (const std::exception& e) {
    envelope = json::Value::object();
    envelope.set("ok", json::Value::boolean(false));
    if (!op.empty()) envelope.set("op", json::Value::string(op));
    if (!id.is_null()) envelope.set("id", id);
    envelope.set("error", json::Value::string(e.what()));
    quit = false;
  }
  return {json::dump_compact(envelope), quit};
}

}  // namespace parmis::orchestrate
