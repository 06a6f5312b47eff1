// Tests for the campaign orchestration subsystem (src/orchestrate):
// the chunk queue (grant order, retry budgets, expiry, stale answers,
// cancellation), the job scheduler's headline guarantee (any worker
// count / chunk count / injected crash produces the unsharded digest),
// worker-failure recovery through the process backend, AF_UNIX path
// hardening, and the parmis-orch-v2 session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "exec/campaign.hpp"
#include "obs/distributed.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/lease.hpp"
#include "orchestrate/protocol.hpp"
#include "orchestrate/scheduler.hpp"
#include "orchestrate/subprocess.hpp"
#include "report/report_json.hpp"
#include "serde/json_util.hpp"
#include "serde/plan.hpp"
#include "serve/socket.hpp"

namespace parmis::orchestrate {
namespace {

std::string temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "parmis_orch_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  make_directories(dir);
  return dir;
}

/// Small real campaign: one registry scenario, every method, two seeds.
serde::CampaignPlan small_plan() {
  serde::CampaignPlan plan;
  plan.name = "orch-test";
  plan.scenarios = {serde::ScenarioRef::by_name("manycore-mixed-te")};
  plan.seeds_per_cell = 2;
  return plan;
}

exec::CampaignConfig plan_config(const serde::CampaignPlan& plan) {
  serde::ScenarioCatalogue catalogue;
  for (const serde::ScenarioRef& ref : plan.scenarios) {
    if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
  }
  return serde::to_campaign_config(plan, catalogue);
}

void expect_bitwise_equal(const exec::CampaignReport& a,
                          const exec::CampaignReport& b) {
  EXPECT_EQ(a.objectives_digest(), b.objectives_digest());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cells[i].phv),
              std::bit_cast<std::uint64_t>(b.cells[i].phv))
        << "cell " << i;
  }
}

// ----------------------------------------------------------- LeaseTable

TEST(LeaseTable, SingleWorkerDrainsEveryChunkInIndexOrder) {
  LeaseTable::Config cfg;
  cfg.chunks = 6;
  LeaseTable table(cfg);

  std::vector<std::size_t> order;
  while (auto grant = table.next()) {
    order.push_back(grant->chunk);
    EXPECT_EQ(grant->attempt, 0u);
    table.complete(*grant);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));

  const LeaseTableStats stats = table.stats();
  EXPECT_EQ(stats.chunks_total, 6u);
  EXPECT_EQ(stats.chunks_done, 6u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_FALSE(table.failed());
  EXPECT_FALSE(table.next().has_value());  // stays drained
}

TEST(LeaseTable, TwoWorkersGetEachChunkExactlyOnceInIndexOrder) {
  LeaseTable::Config cfg;
  cfg.chunks = 8;
  LeaseTable table(cfg);

  // Two workers each take a grant, then both answer: the queue hands
  // out chunks in index order whoever asks, never one twice.
  std::vector<std::size_t> order;
  while (const std::optional<Grant> a = table.next()) {
    const std::optional<Grant> b = table.next();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(table.stats().chunks_running, 2u);
    for (const Grant& grant : {*a, *b}) {
      order.push_back(grant.chunk);
      EXPECT_EQ(grant.attempt, 0u);
      table.complete(grant);
    }
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(table.stats().chunks_done, 8u);
  EXPECT_EQ(table.stats().chunks_running, 0u);
  EXPECT_FALSE(table.failed());
}

TEST(LeaseTable, RetryBudgetRequeuesThenExhausts) {
  LeaseTable::Config cfg;
  cfg.chunks = 2;
  cfg.max_attempts = 2;
  LeaseTable table(cfg);

  auto grant = table.next();
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->chunk, 0u);
  table.fail(*grant, "flaky once");
  EXPECT_FALSE(table.failed());  // one attempt left

  // The retry queue outranks fresh chunks, so chunk 0 comes back
  // first, with its attempt count bumped.
  grant = table.next();
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->chunk, 0u);
  EXPECT_EQ(grant->attempt, 1u);
  table.fail(*grant, "broken for good");
  EXPECT_TRUE(table.failed());
  // The retained error carries the attempt context around the cause.
  EXPECT_NE(table.first_error().find("broken for good"),
            std::string::npos);

  // A failed table still drains the rest, so partial results stay
  // coherent for the provisional merge.
  grant = table.next();
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->chunk, 1u);
  table.complete(*grant);
  EXPECT_FALSE(table.next().has_value());

  const LeaseTableStats stats = table.stats();
  EXPECT_EQ(stats.chunks_done, 1u);
  EXPECT_EQ(stats.chunks_exhausted, 1u);
  EXPECT_EQ(stats.retries, 1u);  // the exhausting failure is not requeued
}

TEST(LeaseTable, ExpiredLeaseIsReissuedAndZombieCompletionIsBenign) {
  LeaseTable::Config cfg;
  cfg.chunks = 1;
  cfg.max_attempts = 3;
  cfg.lease_timeout_ms = 5;
  LeaseTable table(cfg);

  const auto dead = table.next();
  ASSERT_TRUE(dead.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // The replacement worker's next() sweeps expired grants: the chunk
  // comes back as a retry with attempt + 1.
  const auto retry = table.next();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->chunk, 0u);
  EXPECT_EQ(retry->attempt, 1u);
  EXPECT_EQ(table.stats().expiries, 1u);
  EXPECT_EQ(table.stats().retries, 1u);

  // The dead grant's late failure is recognised by its stale attempt:
  // it neither burns an attempt of the re-issued grant nor requeues a
  // second copy of the chunk.
  table.fail(*dead, "late failure from the expired grant");
  LeaseTableStats stats = table.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.chunks_running, 1u);
  EXPECT_EQ(stats.chunks_queued, 0u);
  EXPECT_FALSE(table.failed());

  // The live grant still owns attempt 1: failing it requeues attempt 2,
  // the last one the budget allows.
  table.fail(*retry, "flaky");
  const auto last = table.next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->attempt, 2u);
  EXPECT_FALSE(table.failed());

  // The presumed-dead worker finishing anyway is fine — completion is
  // idempotent, and chunk outputs are deterministic so both runs wrote
  // identical bytes.
  table.complete(*dead);
  table.complete(*last);
  stats = table.stats();
  EXPECT_EQ(stats.chunks_done, 1u);
  EXPECT_EQ(stats.chunks_running, 0u);
  EXPECT_FALSE(table.failed());
  EXPECT_FALSE(table.next().has_value());
}

TEST(LeaseTable, CancelUnblocksBlockedWorkers) {
  LeaseTable::Config cfg;
  cfg.chunks = 1;
  LeaseTable table(cfg);

  const auto grant = table.next();
  ASSERT_TRUE(grant.has_value());

  // Nothing queued (the only chunk is in flight), so this next()
  // blocks until cancel() sweeps through.
  std::atomic<bool> unblocked{false};
  std::thread waiter([&] {
    EXPECT_FALSE(table.next().has_value());
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(unblocked.load());
  table.cancel();
  waiter.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_TRUE(table.cancelled());
  EXPECT_FALSE(table.next().has_value());
}

// ------------------------------------------------------------ JobRunner

TEST(JobRunner, AnyWorkerAndChunkCountMatchesTheUnshardedRunBitForBit) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(config).run();

  for (const auto& [workers, chunks] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {2, 3}, {4, 7}}) {
    InprocessBackend backend(config);
    JobConfig jc;
    jc.workers = workers;
    jc.chunks = chunks;
    JobRunner runner(backend, jc);
    const exec::CampaignReport merged = runner.run();

    expect_bitwise_equal(merged, unsharded);
    EXPECT_FALSE(merged.partial);
    const JobProgress progress = runner.progress();
    EXPECT_EQ(progress.state, JobProgress::State::Done);
    EXPECT_EQ(progress.stats.chunks_done, chunks);
    EXPECT_EQ(progress.provisional_merges,
              static_cast<std::uint64_t>(chunks));
  }
}

/// Backend that fails the first attempt of one chunk, to drive the
/// retry path deterministically without processes.
class FlakyBackend : public ChunkBackend {
 public:
  FlakyBackend(exec::CampaignConfig base, std::size_t flaky_chunk)
      : inner_(std::move(base)), flaky_chunk_(flaky_chunk) {}

  ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                         std::size_t attempt,
                         const std::atomic<bool>& abort) override {
    if (index == flaky_chunk_ && attempt == 0) {
      ChunkOutcome outcome;
      outcome.error = "injected first-attempt failure";
      return outcome;
    }
    return inner_.run_chunk(index, count, attempt, abort);
  }

 private:
  InprocessBackend inner_;
  std::size_t flaky_chunk_;
};

TEST(JobRunner, RetriedChunkStillProducesTheUnshardedDigest) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(config).run();

  FlakyBackend backend(config, /*flaky_chunk=*/1);
  JobConfig jc;
  jc.workers = 3;
  jc.chunks = 4;
  JobRunner runner(backend, jc);
  const exec::CampaignReport merged = runner.run();

  expect_bitwise_equal(merged, unsharded);
  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Done);
  EXPECT_GE(progress.stats.retries, 1u);
}

TEST(JobRunner, ExhaustedRetryBudgetFailsTheJobButKeepsTheProvisional) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);

  /// Fails one chunk on every attempt.
  class BrokenChunkBackend : public ChunkBackend {
   public:
    explicit BrokenChunkBackend(exec::CampaignConfig base)
        : inner_(std::move(base)) {}
    ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                           std::size_t attempt,
                           const std::atomic<bool>& abort) override {
      if (index == 0) {
        ChunkOutcome outcome;
        outcome.error = "chunk 0 always fails";
        return outcome;
      }
      return inner_.run_chunk(index, count, attempt, abort);
    }

   private:
    InprocessBackend inner_;
  };

  BrokenChunkBackend backend(config);
  JobConfig jc;
  jc.workers = 2;
  jc.chunks = 3;
  jc.max_attempts = 2;
  JobRunner runner(backend, jc);
  EXPECT_THROW(runner.run(), Error);

  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Failed);
  EXPECT_NE(progress.error.find("chunk 0 always fails"),
            std::string::npos);
  // The other chunks still drained into a coherent partial merge.
  ASSERT_TRUE(progress.has_report);
  EXPECT_TRUE(progress.report_partial);
  const auto provisional = runner.provisional();
  ASSERT_TRUE(provisional.has_value());
  EXPECT_TRUE(provisional->partial);
  EXPECT_GT(provisional->cells.size(), 0u);
}

TEST(JobRunner, ProgressCarriesAttemptRecordsAndThroughput) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  InprocessBackend backend(config);
  JobConfig jc;
  jc.workers = 2;
  jc.chunks = 3;
  JobRunner runner(backend, jc);
  runner.run();

  const JobProgress p = runner.progress();
  EXPECT_EQ(p.state, JobProgress::State::Done);
  // One record per attempt, each chunk exactly once on the happy path.
  ASSERT_EQ(p.attempts.size(), 3u);
  std::set<std::size_t> chunks;
  for (const AttemptRecord& a : p.attempts) {
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.attempt, 0u);
    chunks.insert(a.chunk);
    EXPECT_TRUE(a.log_path.empty());  // in-process: no worker artifacts
  }
  EXPECT_EQ(chunks.size(), 3u);
  // Throughput estimator: after Done it settles to the job average;
  // the ETA is only ever emitted mid-run.
  EXPECT_EQ(p.cells_done, p.total_cells);
  EXPECT_GT(p.cells_done, 0u);
  EXPECT_GT(p.cells_per_s, 0.0);
  EXPECT_EQ(p.eta_s, 0.0);
}

// --------------------------------------------- process-backend recovery

TEST(Orchestrate, KilledWorkerIsRetriedAndTheFinalDigestIsUnchanged) {
  // The real satellite check: spawn actual `campaign` worker processes
  // (the binary sits next to this test in the build tree), SIGKILL the
  // first attempt of chunk 0, and require the recovered job to land on
  // the unsharded run's exact digest.
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(plan)).run();

  JobManager::Defaults defaults;
  defaults.workers = 3;
  defaults.chunks = 4;
  defaults.max_attempts = 3;
  defaults.work_dir = temp_dir("kill");
  defaults.cache_dir = temp_dir("kill_cache");
  defaults.campaign_bin = sibling_binary("", "campaign");
  defaults.inject_kill_chunk = 0;
  JobManager manager(defaults);

  const JobManager::JobInfo submitted = manager.submit(plan);
  EXPECT_EQ(submitted.total_cells, unsharded.cells.size());

  JobManager::JobInfo info = submitted;
  for (int i = 0; i < 600; ++i) {  // 30 s budget; typically < 1 s
    info = *manager.info(submitted.id);
    if (info.progress.state != JobProgress::State::Pending &&
        info.progress.state != JobProgress::State::Running) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  manager.shutdown();
  info = *manager.info(submitted.id);

  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;
  EXPECT_GE(info.progress.stats.retries, 1u);  // the injected kill
  EXPECT_EQ(info.progress.report_digest, unsharded.objectives_digest());

  const exec::CampaignReport final_report =
      report::load_report(info.final_path);
  expect_bitwise_equal(final_report, unsharded);
  EXPECT_FALSE(final_report.partial);
}

// -------------------------------------------------------------- sockets

TEST(Orchestrate, OverlongSocketPathsAreRejectedWithTheLimit) {
  const std::string path(300, 'x');
  try {
    serve::listen_unix(path, "orch-test");
    FAIL() << "overlong path accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("socket path too long"), std::string::npos);
    EXPECT_NE(what.find("300 bytes"), std::string::npos);
    EXPECT_NE(what.find("limit"), std::string::npos);
  }
  EXPECT_THROW(serve::connect_unix(path, "orch-test"), Error);
  EXPECT_THROW(serve::listen_unix("", "orch-test"), Error);
}

// ----------------------------------------------------- parmis-orch-v2

/// Manager whose jobs run in-process (hermetic, no child processes).
JobManager::Defaults inprocess_defaults(const std::string& work_dir) {
  JobManager::Defaults defaults;
  defaults.workers = 2;
  defaults.work_dir = work_dir;
  defaults.backend_factory = [](const serde::CampaignPlan& plan,
                                const std::string& /*job_dir*/,
                                const ProcessBackend::Config& /*process*/) {
    return std::unique_ptr<ChunkBackend>(
        new InprocessBackend(plan_config(plan)));
  };
  return defaults;
}

json::Value roundtrip(OrchSession& session, const json::Value& request,
                      bool expect_ok = true) {
  const serve::LineOutcome outcome =
      session.handle_line(json::dump_compact(request));
  const json::Value response = json::parse(outcome.response);
  serde::ObjectReader reader(response, "response");
  EXPECT_EQ(reader.get_bool("ok", !expect_ok), expect_ok)
      << outcome.response;
  return response;
}

TEST(Orchestrate, SessionSubmitStatusResultsLifecycle) {
  JobManager manager(inprocess_defaults(temp_dir("session")));
  OrchSession session(manager);

  // Blank lines produce no response (keeps piped NDJSON 1:1).
  EXPECT_TRUE(session.handle_line("   ").response.empty());

  json::Value ping = json::Value::object();
  ping.set("op", json::Value::string("ping"));
  json::Value pong = roundtrip(session, ping);
  serde::ObjectReader pong_r(pong, "pong");
  EXPECT_EQ(pong_r.get_string("protocol"), "parmis-orch-v2");
  EXPECT_EQ(pong_r.get_u64("jobs"), 0u);

  json::Value submit = json::Value::object();
  submit.set("op", json::Value::string("submit"));
  submit.set("id", json::Value::string("req-1"));
  submit.set("plan", serde::plan_to_json(small_plan()));
  submit.set("chunks", serde::u64_to_json(3));
  submit.set("tag", json::Value::string("lifecycle"));
  json::Value accepted = roundtrip(session, submit);
  serde::ObjectReader accepted_r(accepted, "accepted");
  EXPECT_EQ(accepted_r.get_string("id"), "req-1");  // echoed
  const std::uint64_t job = accepted_r.get_u64("job");
  EXPECT_EQ(accepted_r.get_string("tag"), "lifecycle");
  EXPECT_EQ(accepted_r.get_u64("chunks"), 3u);

  json::Value status = json::Value::object();
  status.set("op", json::Value::string("status"));
  status.set("job", serde::u64_to_json(job));
  std::string state;
  for (int i = 0; i < 600 && state != "done"; ++i) {
    json::Value body = roundtrip(session, status);
    serde::ObjectReader r(body, "status");
    state = r.get_string("state");
    ASSERT_NE(state, "failed") << json::dump_compact(body);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(state, "done");

  json::Value results = json::Value::object();
  results.set("op", json::Value::string("results"));
  results.set("job", serde::u64_to_json(job));
  json::Value body = roundtrip(session, results);
  serde::ObjectReader results_r(body, "results");
  EXPECT_TRUE(results_r.get_bool("final", false));
  EXPECT_FALSE(results_r.get_bool("partial", true));
  const exec::CampaignReport merged =
      report::load_report(results_r.get_string("path"));
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(small_plan())).run();
  expect_bitwise_equal(merged, unsharded);
  EXPECT_EQ(results_r.get_string("digest"),
            hex64(unsharded.objectives_digest()));

  // Cancelling a settled job reports cancelled=false with its state.
  json::Value cancel = json::Value::object();
  cancel.set("op", json::Value::string("cancel"));
  cancel.set("job", serde::u64_to_json(job));
  json::Value cancelled = roundtrip(session, cancel);
  serde::ObjectReader cancelled_r(cancelled, "cancel");
  EXPECT_FALSE(cancelled_r.get_bool("cancelled", true));
  EXPECT_EQ(cancelled_r.get_string("state"), "done");

  json::Value quit = json::Value::object();
  quit.set("op", json::Value::string("quit"));
  const serve::LineOutcome outcome =
      session.handle_line(json::dump_compact(quit));
  EXPECT_TRUE(outcome.quit);
}

TEST(Orchestrate, SessionRejectsBadRequestsWithoutDying) {
  JobManager manager(inprocess_defaults(temp_dir("session_err")));
  OrchSession session(manager);

  // Malformed JSON, unknown op, missing job: all answered in-band.
  const serve::LineOutcome garbage = session.handle_line("{not json");
  EXPECT_FALSE(garbage.quit);
  EXPECT_NE(garbage.response.find("\"ok\":false"), std::string::npos);

  json::Value unknown = json::Value::object();
  unknown.set("op", json::Value::string("frobnicate"));
  json::Value r1 = roundtrip(session, unknown, /*expect_ok=*/false);
  serde::ObjectReader r1_r(r1, "unknown");
  EXPECT_NE(r1_r.get_string("error").find("unknown op"),
            std::string::npos);

  json::Value missing = json::Value::object();
  missing.set("op", json::Value::string("status"));
  missing.set("job", serde::u64_to_json(42));
  json::Value r2 = roundtrip(session, missing, /*expect_ok=*/false);
  serde::ObjectReader r2_r(r2, "missing");
  EXPECT_NE(r2_r.get_string("error").find("no such job"),
            std::string::npos);

  // The lease_chunks field was removed in parmis-orch-v2: a submit that
  // still carries it is rejected, not silently half-honoured.
  json::Value legacy = json::Value::object();
  legacy.set("op", json::Value::string("submit"));
  legacy.set("plan", serde::plan_to_json(small_plan()));
  legacy.set("lease_chunks", serde::u64_to_json(2));
  json::Value r3 = roundtrip(session, legacy, /*expect_ok=*/false);
  serde::ObjectReader r3_r(r3, "legacy");
  EXPECT_NE(r3_r.get_string("error").find("lease_chunks"),
            std::string::npos);

  // A hostile pool size is clamped to the chunk count instead of
  // spawning threads until the OS refuses.
  json::Value huge = json::Value::object();
  huge.set("op", json::Value::string("submit"));
  huge.set("plan", serde::plan_to_json(small_plan()));
  huge.set("workers", serde::u64_to_json(100000));
  const json::Value accepted = roundtrip(session, huge);
  json::Value status = json::Value::object();
  status.set("op", json::Value::string("status"));
  status.set("job", serde::u64_to_json(
                        serde::ObjectReader(accepted, "huge").get_u64("job")));
  json::Value body;
  std::string state;
  for (int i = 0; i < 600 && state != "done"; ++i) {
    body = roundtrip(session, status);
    state = serde::ObjectReader(body, "status").get_string("state");
    ASSERT_NE(state, "failed") << json::dump_compact(body);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(state, "done");
  serde::ObjectReader body_r(body, "status");
  EXPECT_EQ(body_r.get_u64("workers"), body_r.get_u64("chunks"));
  EXPECT_LT(body_r.get_u64("workers"), 100000u);

  // The session survives all of that and still answers ping.
  json::Value ping = json::Value::object();
  ping.set("op", json::Value::string("ping"));
  roundtrip(session, ping);
}

TEST(Orchestrate, SubmittedPlansShedTheirShardSlice) {
  // A plan carrying shard {0,4} orchestrates the FULL campaign: chunking
  // supersedes static sharding, and the digest contract is against the
  // unsharded run.
  serde::CampaignPlan plan = small_plan();
  plan.shard = exec::ShardSpec{0, 4};

  JobManager manager(inprocess_defaults(temp_dir("shard_shed")));
  const JobManager::JobInfo info = manager.submit(plan);
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(small_plan())).run();
  EXPECT_EQ(info.total_cells, unsharded.cells.size());

  // The snapshotted plan the workers would read is unsharded too.
  const serde::CampaignPlan saved =
      serde::load_plan(info.job_dir + "/plan.json");
  EXPECT_FALSE(saved.shard.has_value());
  manager.shutdown();
}

// -------------------------------------------- distributed observability

TEST(Orchestrate, TracedJobStitchesShardsAndRollsUpMetrics) {
  // End-to-end tentpole check with real `campaign` worker processes:
  // submit with tracing on, then require (a) per-attempt artifact
  // paths, (b) a stitched multi-lane Chrome trace, (c) a metrics
  // rollup byte-equal to re-merging the worker shards, and (d) the
  // same digest an untraced unsharded run produces — tracing must
  // observe the campaign without moving its bytes.
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(plan)).run();

  JobManager::Defaults defaults;
  defaults.workers = 2;
  defaults.chunks = 3;
  defaults.work_dir = temp_dir("traced");
  defaults.cache_dir = temp_dir("traced_cache");
  defaults.campaign_bin = sibling_binary("", "campaign");
  defaults.trace = true;
  JobManager manager(defaults);

  const JobManager::JobInfo submitted = manager.submit(plan);
  EXPECT_TRUE(submitted.trace);
  JobManager::JobInfo info = submitted;
  for (int i = 0; i < 600; ++i) {  // 30 s budget; typically < 1 s
    info = *manager.info(submitted.id);
    if (info.progress.state != JobProgress::State::Pending &&
        info.progress.state != JobProgress::State::Running) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  manager.shutdown();
  info = *manager.info(submitted.id);
  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;
  expect_bitwise_equal(report::load_report(info.final_path), unsharded);

  // (a) Every successful attempt points at its worker log and its
  // trace / metrics shards, and the shards really exist.
  ASSERT_GE(info.progress.attempts.size(), 3u);
  std::size_t with_artifacts = 0;
  for (const AttemptRecord& a : info.progress.attempts) {
    if (!a.ok || a.recovered_from_cache) continue;
    EXPECT_FALSE(a.log_path.empty());
    EXPECT_FALSE(a.trace_path.empty());
    EXPECT_FALSE(a.metrics_path.empty());
    EXPECT_TRUE(read_file(a.trace_path).has_value()) << a.trace_path;
    EXPECT_TRUE(read_file(a.metrics_path).has_value()) << a.metrics_path;
    ++with_artifacts;
  }
  EXPECT_GE(with_artifacts, 3u);

  // (b) The stitched trace is one valid Chrome trace document with a
  // lane per shard: the orchestrator plus one per chunk attempt.
  const auto stitched_text = read_file(info.stitched_trace_path);
  ASSERT_TRUE(stitched_text.has_value()) << info.stitched_trace_path;
  const json::Value stitched = json::parse(*stitched_text);
  const json::Value& events = stitched.at("traceEvents");
  std::size_t lanes = 0, flow_starts = 0, flow_finishes = 0;
  std::set<double> lane_pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      ++lanes;
      lane_pids.insert(e.at("pid").as_number());
    }
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_finishes;
  }
  EXPECT_EQ(lanes, 4u);  // orchestrator + 3 chunk-attempt workers
  EXPECT_EQ(lane_pids.size(), 4u);
#ifdef PARMIS_OBS_ENABLED
  // Flow chains need the orchestrator's lease/merge spans, which the
  // instrumentation macros record; an OBS=OFF build stitches lanes
  // but has no spans to link.
  EXPECT_EQ(flow_starts, 3u);
  EXPECT_EQ(flow_finishes, 3u);
#endif

  // (c) The rollup is exactly merge_metrics() over the worker shards
  // in sorted-path order — bucketwise sums, no re-binning drift.
  const auto rollup_text = read_file(info.metrics_rollup_path);
  ASSERT_TRUE(rollup_text.has_value()) << info.metrics_rollup_path;
  std::vector<std::string> shard_paths;
  for (const FileInfo& fi :
       list_files(info.job_dir + "/metrics", ".json")) {
    shard_paths.push_back(fi.path);
  }
  std::sort(shard_paths.begin(), shard_paths.end());
  ASSERT_GE(shard_paths.size(), 3u);
  std::vector<json::Value> shards;
  for (const std::string& path : shard_paths) {
    shards.push_back(json::parse(*read_file(path)));
  }
  EXPECT_EQ(*rollup_text, json::dump(obs::merge_metrics(shards)));

  // (d) The session surfaces all of it: results carries the attempt
  // audit trail and artifact paths; metrics with "job" serves the
  // rollup document back.
  OrchSession session(manager);
  json::Value results = json::Value::object();
  results.set("op", json::Value::string("results"));
  results.set("job", serde::u64_to_json(submitted.id));
  const json::Value body = roundtrip(session, results);
  EXPECT_EQ(body.at("stitched_trace").as_string(),
            info.stitched_trace_path);
  EXPECT_EQ(body.at("metrics_rollup").as_string(),
            info.metrics_rollup_path);
  const json::Value& attempts = body.at("attempts");
  ASSERT_EQ(attempts.size(), info.progress.attempts.size());
  bool saw_log = false;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (attempts.at(i).find("log") != nullptr) saw_log = true;
  }
  EXPECT_TRUE(saw_log);

  json::Value metrics_req = json::Value::object();
  metrics_req.set("op", json::Value::string("metrics"));
  metrics_req.set("job", serde::u64_to_json(submitted.id));
  const json::Value metrics_body = roundtrip(session, metrics_req);
  EXPECT_EQ(json::dump(metrics_body.at("metrics")),
            json::dump(json::parse(*rollup_text)));
}

TEST(Orchestrate, UntracedJobSpawnsNoObservabilityArtifacts) {
  // The digest-neutrality lever at the spawn layer: with trace off the
  // job dir gets no trace/ or metrics/ shards and no stitched outputs,
  // and attempt records carry logs only.
  const serde::CampaignPlan plan = small_plan();
  JobManager::Defaults defaults;
  defaults.workers = 2;
  defaults.chunks = 2;
  defaults.work_dir = temp_dir("untraced");
  defaults.cache_dir = temp_dir("untraced_cache");
  defaults.campaign_bin = sibling_binary("", "campaign");
  JobManager manager(defaults);

  const JobManager::JobInfo submitted = manager.submit(plan);
  EXPECT_FALSE(submitted.trace);
  EXPECT_TRUE(submitted.stitched_trace_path.empty());
  JobManager::JobInfo info = submitted;
  for (int i = 0; i < 600; ++i) {
    info = *manager.info(submitted.id);
    if (info.progress.state != JobProgress::State::Pending &&
        info.progress.state != JobProgress::State::Running) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  manager.shutdown();
  info = *manager.info(submitted.id);
  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;

  EXPECT_TRUE(list_files(info.job_dir + "/trace", ".json").empty());
  EXPECT_TRUE(list_files(info.job_dir + "/metrics", ".json").empty());
  EXPECT_FALSE(read_file(info.job_dir + "/stitched_trace.json")
                   .has_value());
  for (const AttemptRecord& a : info.progress.attempts) {
    EXPECT_TRUE(a.trace_path.empty());
    EXPECT_TRUE(a.metrics_path.empty());
  }
}

}  // namespace
}  // namespace parmis::orchestrate
