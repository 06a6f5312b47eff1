// Tests for the campaign orchestration subsystem (src/orchestrate):
// child-process supervision (exit codes, timeout and abort kills, reap
// latency, spawn failures as failed attempts), the chunk queue (grant
// order, retry budgets, cancellation), the job scheduler's headline
// guarantee (any worker count / chunk count / injected crash produces
// the unsharded digest), worker-failure recovery through the process
// backend, AF_UNIX path hardening, and the parmis-orch-v3 session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "exec/campaign.hpp"
#include "methods/registry.hpp"
#include "obs/distributed.hpp"
#include "orchestrate/backend.hpp"
#include "orchestrate/protocol.hpp"
#include "orchestrate/scheduler.hpp"
#include "orchestrate/subprocess.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "serde/json_util.hpp"
#include "serde/plan.hpp"
#include "serve/socket.hpp"

namespace parmis::orchestrate {
namespace {

/// A fresh empty directory: one left by an earlier run of the suite
/// is removed first, so a cache dir never starts warm.  The process id
/// is part of the name, so two suites run side by side (say a tsan and
/// a plain build) never share a directory.
std::string temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "parmis_orch_" + tag +
                          "_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
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

// --------------------------------------------------------- ChildProcess

using Clock = std::chrono::steady_clock;

std::int64_t ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - start)
      .count();
}

int run_to_exit(std::vector<std::string> argv) {
  ChildProcess child;
  child.spawn(SpawnSpec{std::move(argv), "", "", {}});
  return child.wait();
}

TEST(ChildProcess, WaitReportsTheExitStatus) {
  EXPECT_EQ(run_to_exit({"/bin/sh", "-c", "exit 0"}), 0);
  EXPECT_EQ(run_to_exit({"/bin/sh", "-c", "exit 7"}), 7);
}

TEST(ChildProcess, DeathBySignalReports128PlusTheSignal) {
  EXPECT_EQ(run_to_exit({"/bin/sh", "-c", "kill -TERM $$"}), 128 + SIGTERM);
}

TEST(ChildProcess, ExecFailureReports127) {
  EXPECT_EQ(run_to_exit({"/nonexistent/parmis-no-such-binary"}), 127);
  EXPECT_EQ(run_to_exit({"parmis-no-such-binary-on-path"}), 127);
}

TEST(ChildProcess, LogsAndEnvironmentAreSetUpBeforeExec) {
  const std::string dir = temp_dir("child_env");
  const std::string log = dir + "/child.log";
  remove_file(log);  // logs are appended to; a rerun starts clean
  ChildProcess child;
  child.spawn(SpawnSpec{{"/bin/sh", "-c", "echo \"$PARMIS_CHILD_TEST\"; "
                                           "echo \"${HOME:+home}\" >&2"},
                        log,
                        log,
                        {{"PARMIS_CHILD_TEST", "from-parent"}}});
  ASSERT_EQ(child.wait(), 0);
  // The override reaches the child; the rest of the environment (HOME
  // when the test runner has one) is inherited.
  const std::string want =
      std::string("from-parent\n") + (std::getenv("HOME") ? "home\n" : "\n");
  EXPECT_EQ(read_file(log).value_or("<missing>"), want);
}

TEST(ChildProcess, AnUnopenableLogThrowsNamingItAndStartsNoChild) {
  const std::string log = temp_dir("child_nolog") + "/missing/child.log";
  ChildProcess child;
  try {
    child.spawn(SpawnSpec{{"/bin/true"}, log, log, {}});
    FAIL() << "spawn with an unopenable log succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(log), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(child.pid(), -1);
}

TEST(ChildProcess, TimeoutKillsTheChildWithinTheTimeout) {
  ChildProcess child;
  child.spawn(SpawnSpec{{"sleep", "30"}, "", "", {}});
  const auto start = Clock::now();
  EXPECT_EQ(child.wait(/*timeout_ms=*/200), 128 + SIGKILL);
  const std::int64_t took = ms_since(start);
  EXPECT_GE(took, 200);
  EXPECT_LT(took, 300);
}

TEST(ChildProcess, AbortFromAnotherThreadKillsTheChild) {
  ChildProcess child;
  child.spawn(SpawnSpec{{"sleep", "30"}, "", "", {}});
  std::atomic<bool> abort{false};
  const auto start = Clock::now();
  std::thread aborter([&abort] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    abort.store(true);
  });
  EXPECT_EQ(child.wait(/*timeout_ms=*/0, &abort), 128 + SIGKILL);
  const std::int64_t took = ms_since(start);
  aborter.join();
  EXPECT_GE(took, 200);
  EXPECT_LT(took, 300);
}

TEST(ChildProcess, WaitReturnsWhenTheChildExitsNotOnATimerTick) {
  // 20 short-lived children in sequence, timing wait() alone.  A wait
  // that slept in 10 ms steps would spend at least 200 ms there, as no
  // child has exited by its first poll; one woken by the exit spends
  // the child's exec and exit time.  That time, like fork's, grows with
  // the size of this process, which is why these tests come before the
  // in-process campaigns below.
  Clock::duration waiting{};
  for (int i = 0; i < 20; ++i) {
    ChildProcess child;
    child.spawn(SpawnSpec{{"/bin/true"}, "", "", {}});
    const auto start = Clock::now();
    ASSERT_EQ(child.wait(), 0);
    waiting += Clock::now() - start;
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waiting)
                .count(),
            150);
}

TEST(ChildProcess, ProcessBackendTurnsASpawnFailureIntoAFailedAttempt) {
  ProcessBackend::Config config;
  config.campaign_bin = sibling_binary("", "campaign");
  config.plan_path = "unused.json";
  config.work_dir = temp_dir("child_backend") + "/missing";
  ProcessBackend backend(config);
  const std::atomic<bool> abort{false};
  const ChunkOutcome outcome = backend.run_chunk(0, 1, 0, abort);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find(config.work_dir + "/chunk_0_attempt_0.log"),
            std::string::npos)
      << outcome.error;
  EXPECT_TRUE(outcome.log_path.empty());
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

TEST(JobRunner, ProvisionalWritesCoalesceAndEndOnTheFinalState) {
  const exec::CampaignConfig config = plan_config(small_plan());
  InprocessBackend backend(config);
  JobConfig jc;
  jc.workers = 4;
  jc.chunks = 7;
  jc.provisional_path = temp_dir("provisional") + "/provisional.json";
  JobRunner runner(backend, jc);
  const exec::CampaignReport merged = runner.run();

  // At most one write per stored chunk (fewer when chunks land while a
  // write is in flight), and the file ends on the complete merge.
  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.provisional_merges, 7u);
  EXPECT_GE(progress.provisional_writes, 1u);
  EXPECT_LE(progress.provisional_writes, progress.provisional_merges);
  const exec::CampaignReport written =
      report::load_report(jc.provisional_path);
  EXPECT_FALSE(written.partial);
  expect_bitwise_equal(written, merged);
}

TEST(JobRunner, AFailedProvisionalWriteFailsNoAttempt) {
  const exec::CampaignConfig config = plan_config(small_plan());
  const exec::CampaignReport unsharded = exec::CampaignRunner(config).run();
  InprocessBackend backend(config);
  JobConfig jc;
  jc.workers = 2;
  jc.chunks = 3;
  jc.provisional_path = temp_dir("no_provisional") + "/missing/p.json";
  JobRunner runner(backend, jc);
  expect_bitwise_equal(runner.run(), unsharded);

  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Done);
  EXPECT_EQ(progress.stats.retries, 0u);
  EXPECT_EQ(progress.provisional_merges, 3u);
  EXPECT_EQ(progress.provisional_writes, 0u);
  for (const AttemptRecord& a : progress.attempts) EXPECT_TRUE(a.ok);
  EXPECT_FALSE(read_file(jc.provisional_path).has_value());
}

/// Runs chunks in process, records every (chunk, attempt) it is asked
/// for in call order, and fails the attempts in `failing` — the retry
/// path without processes.  With `pair_up`, calls meet in pairs: each
/// waits until its partner has arrived too (or release() is called),
/// so two workers hold grants at once.
class ScriptedBackend : public ChunkBackend {
 public:
  using Call = std::pair<std::size_t, std::size_t>;  ///< (chunk, attempt)

  explicit ScriptedBackend(exec::CampaignConfig base,
                           std::set<Call> failing = {}, bool pair_up = false)
      : inner_(std::move(base)),
        failing_(std::move(failing)),
        pair_up_(pair_up) {}

  ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                         std::size_t attempt,
                         const std::atomic<bool>& abort) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      calls_.emplace_back(index, attempt);
      max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
      cv_.notify_all();
      const std::size_t partner = calls_.size() + calls_.size() % 2;
      cv_.wait(lock, [&] {
        return !pair_up_ || released_ || calls_.size() >= partner;
      });
    }
    ChunkOutcome outcome;
    if (failing_.count({index, attempt}) > 0) {
      outcome.error = "scripted failure of chunk " + std::to_string(index) +
                      " attempt " + std::to_string(attempt);
    } else {
      outcome = inner_.run_chunk(index, count, attempt, abort);
    }
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    return outcome;
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

  std::size_t max_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }

 private:
  InprocessBackend inner_;
  const std::set<Call> failing_;
  const bool pair_up_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Call> calls_;
  std::size_t in_flight_ = 0;
  std::size_t max_in_flight_ = 0;
  bool released_ = false;
};

/// Eight cheap cells: one governor over eight seeds.
exec::CampaignConfig governor_config() {
  exec::CampaignConfig config = plan_config(small_plan());
  config.scenarios.front().methods = {"performance"};
  config.seeds_per_cell = 8;
  return config;
}

TEST(JobRunner, OneWorkerIsGrantedChunksInIndexOrder) {
  ScriptedBackend backend(governor_config());
  JobConfig jc;
  jc.workers = 1;
  jc.chunks = 6;
  JobRunner runner(backend, jc);
  runner.run();

  EXPECT_EQ(backend.calls(), (std::vector<ScriptedBackend::Call>{
                                 {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},
                                 {5, 0}}));
  const LeaseTableStats stats = runner.progress().stats;
  EXPECT_EQ(stats.chunks_total, 6u);
  EXPECT_EQ(stats.chunks_done, 6u);
  EXPECT_EQ(stats.chunks_running, 0u);
  EXPECT_EQ(stats.chunks_queued, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(JobRunner, TwoWorkersGetEachChunkExactlyOnce) {
  const exec::CampaignConfig config = governor_config();
  ScriptedBackend backend(config, {}, /*pair_up=*/true);
  JobConfig jc;
  jc.workers = 2;
  jc.chunks = 8;
  JobRunner runner(backend, jc);
  expect_bitwise_equal(runner.run(), exec::CampaignRunner(config).run());

  EXPECT_EQ(backend.max_in_flight(), 2u);
  std::vector<ScriptedBackend::Call> calls = backend.calls();
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, (std::vector<ScriptedBackend::Call>{
                       {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0},
                       {6, 0}, {7, 0}}));
  EXPECT_EQ(runner.progress().stats.chunks_done, 8u);
}

TEST(JobRunner, AFailedChunkIsRegrantedBeforeTheNextFreshChunk) {
  const exec::CampaignConfig config = governor_config();
  ScriptedBackend backend(config, {{0, 0}});
  JobConfig jc;
  jc.workers = 1;
  jc.chunks = 3;
  JobRunner runner(backend, jc);
  expect_bitwise_equal(runner.run(), exec::CampaignRunner(config).run());

  // The retry queue outranks fresh chunks, so chunk 0 comes back first,
  // with its attempt count bumped.
  EXPECT_EQ(backend.calls(), (std::vector<ScriptedBackend::Call>{
                                 {0, 0}, {0, 1}, {1, 0}, {2, 0}}));
  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Done);
  EXPECT_EQ(progress.stats.retries, 1u);
  EXPECT_EQ(progress.stats.chunks_exhausted, 0u);
}

TEST(JobRunner, AnExhaustedChunkFailsTheJobWhileTheRestDrain) {
  ScriptedBackend backend(governor_config(), {{1, 0}, {1, 1}});
  JobConfig jc;
  jc.workers = 1;
  jc.chunks = 3;
  jc.max_attempts = 2;
  JobRunner runner(backend, jc);
  EXPECT_THROW(runner.run(), Error);

  // A failed job still drains the rest, so partial results stay
  // coherent for the provisional merge.
  EXPECT_EQ(backend.calls(), (std::vector<ScriptedBackend::Call>{
                                 {0, 0}, {1, 0}, {1, 1}, {2, 0}}));
  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Failed);
  EXPECT_EQ(progress.error,
            "chunk 1 failed 2 times: scripted failure of chunk 1 attempt 1");
  EXPECT_EQ(progress.stats.chunks_done, 2u);
  EXPECT_EQ(progress.stats.chunks_exhausted, 1u);
  EXPECT_EQ(progress.stats.chunks_queued, 0u);
  EXPECT_EQ(progress.stats.retries, 1u);  // the exhausting try is not one
  EXPECT_TRUE(progress.report_partial);
}

/// Threads of this process: one /proc/self/task entry each.
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

TEST(JobRunner, CancelWakesAWorkerWaitingOnChunksInFlight) {
  // One chunk, two workers: one holds the chunk in the backend (its
  // partner never comes), so the other has nothing to take and waits.
  ScriptedBackend backend(governor_config(), {}, /*pair_up=*/true);
  JobConfig jc;
  jc.workers = 2;
  jc.chunks = 1;
  JobRunner runner(backend, jc);
  std::thread job([&] { EXPECT_THROW(runner.run(), Error); });
  auto start = Clock::now();
  while (backend.calls().empty() && ms_since(start) < 30000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(backend.calls().size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t threads = thread_count();

  // The waiting worker leaves on cancel() alone: the chunk is still
  // held, so no answer can wake it.
  runner.cancel();
  start = Clock::now();
  while (thread_count() >= threads && ms_since(start) < 30000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(thread_count(), threads - 1);
  EXPECT_EQ(runner.progress().stats.chunks_running, 1u);

  backend.release();
  job.join();
  EXPECT_EQ(runner.progress().state, JobProgress::State::Cancelled);
  EXPECT_EQ(backend.calls().size(), 1u);  // nothing granted after cancel
}

TEST(JobRunner, RetriedChunkStillProducesTheUnshardedDigest) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(config).run();

  ScriptedBackend backend(config, {{1, 0}});
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

TEST(JobRunner, RejectedChunkReportFailsTheAttemptAndKeepsTheProvisional) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(config).run();

  /// Answers the first attempt at chunk 1 with chunk 0's report, which
  /// the merge must refuse as an overlap once chunk 0 is in.
  class DuplicateReportBackend : public ChunkBackend {
   public:
    explicit DuplicateReportBackend(exec::CampaignConfig base)
        : inner_(std::move(base)) {}
    ChunkOutcome run_chunk(std::size_t index, std::size_t count,
                           std::size_t attempt,
                           const std::atomic<bool>& abort) override {
      const bool duplicate = index == 1 && attempt == 0;
      return inner_.run_chunk(duplicate ? 0 : index, count, attempt, abort);
    }

   private:
    InprocessBackend inner_;
  };

  // One worker takes the chunks in index order, so chunk 0 is merged
  // before chunk 1's duplicate arrives.
  DuplicateReportBackend backend(config);
  JobConfig jc;
  jc.workers = 1;
  jc.chunks = 3;
  JobRunner runner(backend, jc);
  expect_bitwise_equal(runner.run(), unsharded);

  const JobProgress progress = runner.progress();
  EXPECT_EQ(progress.state, JobProgress::State::Done);
  EXPECT_EQ(progress.stats.retries, 1u);
  EXPECT_EQ(progress.provisional_merges, 3u);
  ASSERT_EQ(progress.attempts.size(), 4u);
  const AttemptRecord& rejected = progress.attempts[1];
  EXPECT_EQ(rejected.chunk, 1u);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("cannot merge chunk"), std::string::npos)
      << rejected.error;
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

/// Answers chunk k with a prepared report once the test releases k,
/// so the test decides the order chunks complete in.
class GatedBackend : public ChunkBackend {
 public:
  explicit GatedBackend(std::vector<exec::CampaignReport> reports)
      : reports_(std::move(reports)) {}

  ChunkOutcome run_chunk(std::size_t index, std::size_t /*count*/,
                         std::size_t /*attempt*/,
                         const std::atomic<bool>& /*abort*/) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_.count(index) > 0; });
    ChunkOutcome outcome;
    outcome.ok = true;
    outcome.report = reports_[index];
    return outcome;
  }

  void release(std::size_t index) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_.insert(index);
    }
    cv_.notify_all();
  }

 private:
  std::vector<exec::CampaignReport> reports_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::size_t> released_;
};

/// Equal merge results: cells (digest and PHV bits), partial flag and
/// source tiling.  Wall clock sums depend on the order of addition and
/// are not compared.
void expect_same_merge(const exec::CampaignReport& got,
                       const exec::CampaignReport& want,
                       const std::string& where) {
  SCOPED_TRACE(where);
  expect_bitwise_equal(got, want);
  EXPECT_EQ(got.partial, want.partial);
  EXPECT_EQ(got.source_shard_count, want.source_shard_count);
  EXPECT_EQ(got.source_shards, want.source_shards);
  EXPECT_EQ(got.total_cells, want.total_cells);
  EXPECT_EQ(got.campaign_hash, want.campaign_hash);
}

/// progress() reports `merged`'s digest, cell counts and `partial`.
void expect_progress_reads(const JobProgress& p,
                           const exec::CampaignReport& merged,
                           const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_TRUE(p.has_report);
  EXPECT_EQ(p.report_digest, merged.objectives_digest());
  EXPECT_EQ(p.report_cells, merged.cells.size());
  EXPECT_EQ(p.report_partial, merged.partial);
  EXPECT_EQ(p.total_cells, merged.total_cells);
}

TEST(JobRunner, StoredChunksMergeLikeTheFoldChainAtEveryPrefix) {
  // The scheduler stores chunk reports and merges on demand; the old
  // scheduler folded each landing chunk into the provisional with a
  // non-strict merge.  Chunks complete here in a shuffled order, and
  // after each one provisional() and progress() must equal that fold
  // chain over the same prefix.  The complete tiling is run()'s result,
  // which takes the slots: provisional() is checked short of it, and
  // progress() keeps reading the same state after run() returns.
  const exec::CampaignConfig config = plan_config(small_plan());
  constexpr std::size_t kChunks = 5;
  std::vector<exec::CampaignReport> chunks;
  for (std::size_t k = 0; k < kChunks; ++k) {
    exec::CampaignConfig shard = config;
    shard.shard = exec::ShardSpec{k, kChunks};
    chunks.push_back(exec::CampaignRunner(shard).run());
  }
  std::vector<std::size_t> order(kChunks);
  for (std::size_t k = 0; k < kChunks; ++k) order[k] = k;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));

  GatedBackend backend(chunks);
  JobConfig jc;
  jc.workers = kChunks;  // every chunk is in flight at once
  jc.chunks = kChunks;
  JobRunner runner(backend, jc);
  EXPECT_FALSE(runner.provisional().has_value());
  std::optional<exec::CampaignReport> result;
  std::thread job([&] { result = runner.run(); });

  report::MergeOptions lax;
  lax.strict = false;
  std::optional<exec::CampaignReport> folded;
  for (std::size_t i = 0; i < kChunks; ++i) {
    backend.release(order[i]);
    const auto start = Clock::now();
    while (runner.progress().provisional_merges < i + 1 &&
           ms_since(start) < 30000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<exec::CampaignReport> inputs;
    if (folded.has_value()) inputs.push_back(std::move(*folded));
    inputs.push_back(chunks[order[i]]);
    folded = report::merge(std::move(inputs), lax);

    const std::string where = "after " + std::to_string(i + 1) + " chunks";
    if (i + 1 < kChunks) {
      const std::optional<exec::CampaignReport> stored =
          runner.provisional();
      ASSERT_TRUE(stored.has_value()) << where;
      expect_same_merge(*stored, *folded, where);
    }
    expect_progress_reads(runner.progress(), *folded, where);
  }
  job.join();
  ASSERT_TRUE(result.has_value());
  expect_same_merge(*result, *folded, "final");
  expect_bitwise_equal(*result, exec::CampaignRunner(config).run());
  expect_progress_reads(runner.progress(), *folded, "after run()");
  EXPECT_FALSE(runner.provisional().has_value());
}

// --------------------------------------------- process-backend recovery

/// Submits `plan` to a fresh manager on `defaults`, waits for the job to
/// settle, and joins it (final.json is written by then).
JobManager::JobInfo launch(const JobManager::Defaults& defaults,
                           const serde::CampaignPlan& plan) {
  JobManager manager(defaults);
  const JobManager::JobInfo submitted = manager.submit(plan);
  for (int i = 0; i < 600; ++i) {  // 30 s budget; typically < 1 s
    const JobProgress::State state =
        manager.info(submitted.id)->progress.state;
    if (state != JobProgress::State::Pending &&
        state != JobProgress::State::Running) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  manager.shutdown();
  return *manager.info(submitted.id);
}

/// Real `campaign` workers on 3 chunks over `cache_dir`, in a fresh
/// work dir.
JobManager::Defaults worker_defaults(const std::string& cache_dir) {
  JobManager::Defaults defaults;
  defaults.workers = 2;
  defaults.chunks = 3;
  defaults.max_attempts = 3;
  defaults.work_dir = temp_dir("workers");
  defaults.cache_dir = cache_dir;
  defaults.campaign_bin = sibling_binary("", "campaign");
  return defaults;
}

/// Computes every cell of `plan` into `cache_dir`.
void fill_cache(const serde::CampaignPlan& plan,
                const std::string& cache_dir) {
  cache::ResultCache cache(cache_dir);
  exec::CampaignConfig config = plan_config(plan);
  config.cache = &cache;
  ASSERT_EQ(exec::CampaignRunner(config).run().cache_misses,
            config.scenarios.front().methods.size() * config.seeds_per_cell);
}

/// The report's bytes with its wall clock zeroed.
std::string timeless_bytes(exec::CampaignReport report) {
  report.wall_s = 0.0;
  std::ostringstream os;
  report::write_report(os, report);
  return os.str();
}

/// timeless_bytes with the cache counters and every cell's from_cache
/// flag cleared too: what a warm replay may change.
std::string cacheless_bytes(exec::CampaignReport report) {
  report.cache_hits = 0;
  report.cache_misses = 0;
  for (exec::CellResult& cell : report.cells) cell.from_cache = false;
  return timeless_bytes(std::move(report));
}

TEST(Orchestrate, KilledWorkerIsRetriedAndTheFinalDigestIsUnchanged) {
  // The real satellite check: spawn actual `campaign` worker processes
  // (the binary sits next to this test in the build tree), SIGKILL the
  // first attempt of chunk 0, and require the recovered job to land on
  // the unsharded run's exact digest.
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(plan)).run();

  JobManager::Defaults defaults = worker_defaults(temp_dir("kill_cache"));
  defaults.workers = 3;
  defaults.chunks = 4;
  defaults.inject_kill_chunk = 0;
  const JobManager::JobInfo info = launch(defaults, plan);
  EXPECT_EQ(info.total_cells, unsharded.cells.size());

  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;
  EXPECT_GE(info.progress.stats.retries, 1u);  // the injected kill
  EXPECT_EQ(info.progress.report_digest, unsharded.objectives_digest());

  const exec::CampaignReport final_report =
      report::load_report(info.final_path);
  expect_bitwise_equal(final_report, unsharded);
  EXPECT_FALSE(final_report.partial);
}

// ------------------------------------------------ in-process cache replay

TEST(ProcessBackend, ReplayEqualsARequireCachedWorkerForEveryChunk) {
  const serde::CampaignPlan plan = small_plan();
  const std::string dir = temp_dir("replay_bytes");
  const std::string cache_dir = dir + "/cache";
  fill_cache(plan, cache_dir);
  make_directories(dir + "/job");
  make_directories(dir + "/workers");

  ProcessBackend::Config config;
  config.campaign_bin = sibling_binary("", "campaign");
  config.plan_path = dir + "/plan.json";
  config.work_dir = dir + "/job";
  config.cache_dir = cache_dir;
  serde::save_plan(config.plan_path, plan);
  // One backend, so one replay runner, answers both tilings.
  ProcessBackend backend(config);
  const std::atomic<bool> abort{false};
  for (const std::size_t chunks : {3u, 5u}) {
    for (std::size_t k = 0; k < chunks; ++k) {
      const ChunkOutcome replayed = backend.run_chunk(k, chunks, 0, abort);
      ASSERT_TRUE(replayed.ok) << replayed.error;
      EXPECT_TRUE(replayed.recovered_from_cache);
      EXPECT_TRUE(replayed.log_path.empty());

      const std::string out = dir + "/workers/chunk_" + std::to_string(k) +
                              "_of_" + std::to_string(chunks);
      ChildProcess worker;
      worker.spawn(
          SpawnSpec{{config.campaign_bin, "--plan=" + config.plan_path,
                     "--shard-index=" + std::to_string(k),
                     "--shard-count=" + std::to_string(chunks),
                     "--threads=1", "--cache-dir=" + cache_dir,
                     "--require-cached=1", "--json=" + out + ".json"},
                    out + ".log",
                    out + ".log",
                    {}});
      ASSERT_EQ(worker.wait(), 0) << *read_file(out + ".log");
      // The replay leaves PHV to the job's merge; the CLI's report is
      // final and carries it.
      exec::CampaignReport final_replay = replayed.report;
      report::assign_global_phv(final_replay);
      EXPECT_EQ(timeless_bytes(final_replay),
                timeless_bytes(report::load_report(out + ".json")))
          << "chunk " << k << " of " << chunks;
    }
  }
  // No chunk started a process.
  EXPECT_TRUE(list_files(config.work_dir).empty());
}

TEST(ProcessBackend, WarmRelaunchSpawnsNoWorker) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignReport unsharded =
      exec::CampaignRunner(plan_config(plan)).run();
  const std::string cache_dir = temp_dir("warm_cache");

  const JobManager::JobInfo cold = launch(worker_defaults(cache_dir), plan);
  ASSERT_EQ(cold.progress.state, JobProgress::State::Done)
      << cold.progress.error;
  for (const AttemptRecord& a : cold.progress.attempts) {
    EXPECT_FALSE(a.recovered_from_cache);
    EXPECT_FALSE(a.log_path.empty());
  }

  const JobManager::JobInfo warm = launch(worker_defaults(cache_dir), plan);
  ASSERT_EQ(warm.progress.state, JobProgress::State::Done)
      << warm.progress.error;
  EXPECT_EQ(warm.progress.chunks_recovered, 3u);
  ASSERT_EQ(warm.progress.attempts.size(), 3u);
  for (const AttemptRecord& a : warm.progress.attempts) {
    EXPECT_TRUE(a.ok);
    EXPECT_TRUE(a.recovered_from_cache);
    EXPECT_TRUE(a.log_path.empty());
  }
  EXPECT_TRUE(list_files(warm.job_dir, ".log").empty());
  const exec::CampaignReport final_report =
      report::load_report(warm.final_path);
  expect_bitwise_equal(final_report, unsharded);
  EXPECT_FALSE(final_report.partial);
  for (const exec::CellResult& cell : final_report.cells) {
    EXPECT_TRUE(cell.from_cache);
  }
  // The cold launch's report bit for bit, PHV included (the replayed
  // chunks carry none of their own).
  EXPECT_EQ(cacheless_bytes(final_report),
            cacheless_bytes(report::load_report(cold.final_path)));
}

TEST(ProcessBackend, AMissingEntrySpawnsAWorkerForItsChunkOnly) {
  const serde::CampaignPlan plan = small_plan();
  const exec::CampaignConfig config = plan_config(plan);
  const std::string cache_dir = temp_dir("missing_cache");
  fill_cache(plan, cache_dir);
  // Cell 0 of the campaign, which chunk 0 holds.
  const scenario::ScenarioSpec& spec = config.scenarios.front();
  const cache::CellKey key = cache::cell_key(
      spec, spec.methods.front(), config.base_seed, config.anchor_limit,
      methods::canonical_method_config(spec.methods.front(),
                                       config.method_configs));
  const std::string entry = cache::ResultCache(cache_dir).entry_path(key);
  ASSERT_TRUE(std::filesystem::remove(entry));

  const JobManager::JobInfo info = launch(worker_defaults(cache_dir), plan);
  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;
  ASSERT_EQ(info.progress.attempts.size(), 3u);
  for (const AttemptRecord& a : info.progress.attempts) {
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.recovered_from_cache, a.chunk != 0) << "chunk " << a.chunk;
    EXPECT_EQ(a.log_path.empty(), a.chunk != 0) << "chunk " << a.chunk;
  }
  const std::vector<FileInfo> logs = list_files(info.job_dir, ".log");
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(std::filesystem::path(logs.front().path).filename(),
            "chunk_0_attempt_0.log");
  EXPECT_EQ(info.progress.report_digest,
            exec::CampaignRunner(config).run().objectives_digest());
  EXPECT_TRUE(read_file(entry).has_value());  // the worker stored it
}

TEST(ProcessBackend, InjectedKillOnAWarmCacheIsStillRetried) {
  const serde::CampaignPlan plan = small_plan();
  const std::string cache_dir = temp_dir("killed_warm_cache");
  fill_cache(plan, cache_dir);
  JobManager::Defaults defaults = worker_defaults(cache_dir);
  defaults.inject_kill_chunk = 1;

  const JobManager::JobInfo info = launch(defaults, plan);
  ASSERT_EQ(info.progress.state, JobProgress::State::Done)
      << info.progress.error;
  EXPECT_GE(info.progress.stats.retries, 1u);
  EXPECT_EQ(info.progress.report_digest,
            exec::CampaignRunner(plan_config(plan)).run().objectives_digest());
  std::size_t killed = 0;
  for (const AttemptRecord& a : info.progress.attempts) {
    if (a.chunk == 1 && a.attempt == 0) {
      ++killed;
      EXPECT_FALSE(a.ok);
      EXPECT_NE(a.error.find("signal 9"), std::string::npos) << a.error;
      EXPECT_TRUE(read_file(a.log_path).has_value()) << a.log_path;
    } else {
      EXPECT_TRUE(a.ok && a.recovered_from_cache)
          << "chunk " << a.chunk << " attempt " << a.attempt;
    }
  }
  EXPECT_EQ(killed, 1u);
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

// ----------------------------------------------------- parmis-orch-v3

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
  EXPECT_EQ(pong_r.get_string("protocol"), "parmis-orch-v3");
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

TEST(Orchestrate, WaitForChangeWakesOnEachSettledChunkAndOnTheEnd) {
  // What campaign-launch follows a job with: each return carries a new
  // chunks-done count or a settled job whose final report exists; an
  // unchanged running job never wakes the caller.
  JobManager manager(inprocess_defaults(temp_dir("wait_for_change")));
  EXPECT_FALSE(manager.wait_for_change(99, 0).has_value());
  JobManager::SubmitOptions options;
  options.chunks = 3;
  const std::uint64_t job = manager.submit(small_plan(), options).id;
  std::vector<std::size_t> seen;
  std::size_t last_done = static_cast<std::size_t>(-1);
  for (;;) {
    const std::optional<JobManager::JobInfo> info =
        manager.wait_for_change(job, last_done);
    ASSERT_TRUE(info.has_value());
    const JobProgress::State state = info->progress.state;
    const bool settled = state != JobProgress::State::Pending &&
                         state != JobProgress::State::Running;
    ASSERT_TRUE(settled || info->progress.stats.chunks_done != last_done);
    last_done = info->progress.stats.chunks_done;
    seen.push_back(last_done);
    if (settled) {
      EXPECT_EQ(state, JobProgress::State::Done) << info->progress.error;
      EXPECT_TRUE(read_file(info->final_path).has_value());
      break;
    }
  }
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.back(), 3u);
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

TEST(Orchestrate, SessionEchoesAValidIdWhenOpIsMissingOrMistyped) {
  JobManager manager(inprocess_defaults(temp_dir("session_id")));
  OrchSession session(manager);
  const auto answer = [&](const std::string& line) {
    const serve::LineOutcome outcome = session.handle_line(line);
    EXPECT_FALSE(outcome.quit);
    const json::Value response = json::parse(outcome.response);
    EXPECT_FALSE(response.at("ok").as_bool()) << outcome.response;
    return response;
  };

  const json::Value no_op = answer("{\"id\":\"r9\"}");
  EXPECT_EQ(no_op.at("id").as_string(), "r9");
  EXPECT_EQ(no_op.find("op"), nullptr);
  const json::Value bad_op = answer("{\"op\":5,\"id\":\"r10\"}");
  EXPECT_EQ(bad_op.at("id").as_string(), "r10");
  const json::Value numeric = answer("{\"id\":-0.0}");
  EXPECT_EQ(numeric.at("id").as_number(), 0.0);

  for (const char* line : {"{\"op\":\"jobs\",\"id\":null}",
                           "{\"op\":\"jobs\",\"id\":{}}"}) {
    const json::Value bad_id = answer(line);
    EXPECT_EQ(bad_id.find("id"), nullptr) << line;
    EXPECT_EQ(bad_id.at("op").as_string(), "jobs") << line;
  }
  // Success responses are the same envelope: ok, op, id, then the body.
  EXPECT_EQ(session.handle_line("{\"op\":\"jobs\",\"id\":1e300}").response,
            "{\"ok\":true,\"op\":\"jobs\",\"id\":1e+300,\"jobs\":[]}");
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
  std::size_t lanes = 0;
  std::set<double> orchestrator_pids, worker_pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() != "M" ||
        e.at("name").as_string() != "process_name") {
      continue;
    }
    ++lanes;
    const std::string name = e.at("args").at("name").as_string();
    const double pid = e.at("pid").as_number();
    if (name.rfind("orchestrator ", 0) == 0) orchestrator_pids.insert(pid);
    if (name.rfind("worker ", 0) == 0) worker_pids.insert(pid);
  }
  EXPECT_EQ(lanes, 4u);  // orchestrator + 3 chunk-attempt workers
  EXPECT_EQ(orchestrator_pids.size(), 1u);
  EXPECT_EQ(worker_pids.size(), 3u);
  // Each flow starts at an orchestrator chunk span, steps through the
  // worker lane that ran the chunk and finishes at the merge.
  std::size_t flow_finishes = 0;
  std::set<double> start_ids, step_ids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "s") {
      EXPECT_EQ(orchestrator_pids.count(e.at("pid").as_number()), 1u);
      start_ids.insert(e.at("id").as_number());
    } else if (ph == "t") {
      EXPECT_EQ(worker_pids.count(e.at("pid").as_number()), 1u);
      step_ids.insert(e.at("id").as_number());
    } else if (ph == "f") {
      ++flow_finishes;
    }
  }
  std::size_t linked = 0;
  for (double id : start_ids) linked += step_ids.count(id);
#ifdef PARMIS_OBS_ENABLED
  // Flow chains need the orchestrator's chunk/merge spans, which the
  // instrumentation macros record; an OBS=OFF build stitches lanes
  // but has no spans to link.
  EXPECT_EQ(start_ids.size(), 3u);
  EXPECT_EQ(linked, 3u);
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

  // The same rollup against sums taken straight from the shards, not
  // through the metrics decoder: each counter is the sum of its shard
  // values, each histogram bucket the sum of its shard buckets.
  std::map<std::string, std::uint64_t> counter_sums;
  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> bucket_sums;
  for (const json::Value& shard : shards) {
    for (const auto& [name, body] : shard.at("metrics").members()) {
      serde::ObjectReader m(body, name);
      const std::string type = m.get_string("type");
      if (type == "counter") counter_sums[name] += m.get_u64("value");
      if (type != "histogram") continue;
      std::map<std::uint64_t, std::uint64_t>& sums = bucket_sums[name];
      for (const json::Value& bucket : body.at("buckets").items()) {
        serde::ObjectReader b(bucket, name);
        sums[b.get_u64("le")] += b.get_u64("count");
      }
    }
  }
  std::size_t counters = 0, histograms = 0;
  const json::Value rollup = json::parse(*rollup_text);
  for (const auto& [name, body] : rollup.at("metrics").members()) {
    serde::ObjectReader m(body, name);
    const std::string type = m.get_string("type");
    if (type == "counter") {
      EXPECT_EQ(m.get_u64("value"), counter_sums[name]) << name;
      ++counters;
    } else if (type == "histogram") {
      std::map<std::uint64_t, std::uint64_t> got;
      for (const json::Value& bucket : body.at("buckets").items()) {
        serde::ObjectReader b(bucket, name);
        got[b.get_u64("le")] = b.get_u64("count");
      }
      std::uint64_t total = 0;
      for (const auto& [le, n] : bucket_sums[name]) total += n;
      EXPECT_EQ(got, bucket_sums[name]) << name;
      EXPECT_EQ(m.get_u64("count"), total) << name;
      ++histograms;
    }
  }
  EXPECT_EQ(counters, counter_sums.size());
  EXPECT_EQ(histograms, bucket_sums.size());
#ifdef PARMIS_OBS_ENABLED
  EXPECT_GT(counters, 0u);
  EXPECT_GT(histograms, 0u);
#endif

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
  JobManager::Defaults defaults = worker_defaults(temp_dir("untraced_cache"));
  defaults.chunks = 2;
  const JobManager::JobInfo info = launch(defaults, small_plan());
  EXPECT_FALSE(info.trace);
  EXPECT_TRUE(info.stitched_trace_path.empty());
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
