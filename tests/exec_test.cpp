// Unit tests for src/exec: thread pool semantics and stress, campaign
// determinism at 1 vs N threads, and the intra-run parallel wiring
// (PaRMIS acquisition scoring).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parmis.hpp"
#include "core/policy_search.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/scenario.hpp"

namespace parmis::exec {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, StressManySmallLoops) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(37, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200L * (36 * 37 / 2));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing loop.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedParallelForDepthThree) {
  // Three levels of nesting on one pool: the calling thread drains its
  // own loop at every level, so even with every worker busy in outer
  // iterations the innermost loops complete.
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(3, [&](std::size_t) {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(leaves.load(), 27);

  // Depth four with a 2-thread pool for good measure.
  std::atomic<int> deep{0};
  pool.parallel_for(2, [&](std::size_t) {
    pool.parallel_for(2, [&](std::size_t) {
      pool.parallel_for(2, [&](std::size_t) {
        pool.parallel_for(2, [&](std::size_t) {
          deep.fetch_add(1, std::memory_order_relaxed);
        });
      });
    });
  });
  EXPECT_EQ(deep.load(), 16);
}

TEST(ThreadPool, ExceptionThrownOnWorkerThreadPropagatesToCaller) {
  // The existing propagation test can rethrow an exception the calling
  // thread itself raised while draining; this one insists the throwing
  // thread was a genuine worker.  Iterations the *caller* drains
  // busy-wait until some worker has picked up a task (trivial bodies
  // would otherwise let the caller drain the whole loop before the
  // workers' condition-variable wake), so a worker is guaranteed to
  // participate and throw.  The wait is an atomic-flag spin with a
  // generous bound — no sleeps, no timing assumptions, TSan-clean.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  bool worker_threw = false;
  try {
    pool.parallel_for(256, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        worker_started.store(true, std::memory_order_release);
        throw std::runtime_error("worker boom");
      }
      for (long spin = 0;
           spin < 2000000000L &&
           !worker_started.load(std::memory_order_acquire);
           ++spin) {
      }
    });
  } catch (const std::runtime_error& e) {
    worker_threw = true;
    EXPECT_STREQ(e.what(), "worker boom");
  }
  EXPECT_TRUE(worker_threw);
  // No deadlock, and the pool remains fully usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ExceptionInNestedLoopPropagatesWithoutDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> outer_done{0};
  EXPECT_THROW(
      pool.parallel_for(6,
                        [&](std::size_t i) {
                          pool.parallel_for(6, [&](std::size_t j) {
                            if (i == 3 && j == 3) {
                              throw std::runtime_error("nested boom");
                            }
                          });
                          outer_done.fetch_add(1,
                                               std::memory_order_relaxed);
                        }),
      std::runtime_error);
  // Still alive.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ThousandTaskChurn) {
  // 1000 back-to-back loops with small, varying iteration counts: the
  // wake/sleep and job-retirement paths churn constantly.  All state
  // crossing threads is atomic or index-disjoint, so the test is
  // TSan-clean by construction — no sleeps, no timing assumptions.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  long expected = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 7);
    expected += static_cast<long>(n);
    pool.parallel_for(n, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), expected);

  // And one big loop with 1000 index-disjoint writes.
  std::vector<int> slots(1000, 0);
  pool.parallel_for(slots.size(),
                    [&](std::size_t i) { slots[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_EQ(slots[i], static_cast<int>(i));
  }
}

// ------------------------------------------ intra-run parallel evaluation

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  spec.benchmark_apps = {"qsort", "sha", "dijkstra"};
  return spec;
}

TEST(ParmisPool, AcquisitionScoringPoolDoesNotChangeSearch) {
  const scenario::ScenarioSpec spec = small_spec();
  const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);

  std::vector<num::Vec> fronts[2];
  for (int k = 0; k < 2; ++k) {
    ThreadPool pool(4);
    soc::Platform platform(soc_spec, spec.platform_config);
    core::DrmPolicyProblem problem(platform,
                                   scenario::make_applications(spec),
                                   scenario::make_objectives(spec));
    core::ParmisConfig config = spec.parmis;
    config.max_iterations = 2;
    config.seed = 5;
    if (k == 1) config.pool = &pool;
    core::Parmis parmis(problem.evaluation_fn(), problem.theta_dim(),
                        problem.num_objectives(), config);
    fronts[k] = parmis.run().pareto_front();
  }
  ASSERT_EQ(fronts[0].size(), fronts[1].size());
  for (std::size_t i = 0; i < fronts[0].size(); ++i) {
    for (std::size_t j = 0; j < fronts[0][i].size(); ++j) {
      EXPECT_EQ(fronts[0][i][j], fronts[1][i][j]);
    }
  }
}

// ---------------------------------------------------------------- campaign

exec::CampaignConfig small_campaign(std::size_t threads) {
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-mibench-te"),
                      scenario::make_scenario("xu3-noisy-te"),
                      scenario::make_scenario("mobile3-edp")};
  // Trim methods so the test stays fast but still mixes method kinds.
  for (auto& s : config.scenarios) {
    s.methods = {"parmis", "performance", "random"};
  }
  config.num_threads = threads;
  config.seeds_per_cell = 2;
  return config;
}

TEST(Campaign, OneVsManyThreadsBitwiseIdentical) {
  CampaignReport serial = CampaignRunner(small_campaign(1)).run();
  CampaignReport parallel = CampaignRunner(small_campaign(4)).run();

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(serial.objectives_digest(), parallel.objectives_digest());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const CellResult& a = serial.cells[i];
    const CellResult& b = parallel.cells[i];
    SCOPED_TRACE(a.scenario + "/" + a.method);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.evaluations, b.evaluations);
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t p = 0; p < a.front.size(); ++p) {
      ASSERT_EQ(a.front[p].size(), b.front[p].size());
      for (std::size_t j = 0; j < a.front[p].size(); ++j) {
        EXPECT_EQ(a.front[p][j], b.front[p][j]);
      }
    }
    EXPECT_EQ(a.phv, b.phv);
  }
}

TEST(Campaign, CellsSucceedAndReportsAreWellFormed) {
  const CampaignReport report = CampaignRunner(small_campaign(2)).run();
  ASSERT_EQ(report.cells.size(), 3u * 3u * 2u);
  for (const auto& cell : report.cells) {
    SCOPED_TRACE(cell.scenario + "/" + cell.method);
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_FALSE(cell.front.empty());
    EXPECT_GE(cell.evaluations, 1u);
    EXPECT_EQ(cell.objective_names.size(), 2u);
    EXPECT_EQ(cell.best_raw.size(), 2u);
    EXPECT_GE(cell.phv, 0.0);
  }

  std::ostringstream csv;
  report.write_csv(csv);
  // Header + one line per cell.
  std::size_t lines = 0;
  for (char c : csv.str()) lines += (c == '\n');
  EXPECT_EQ(lines, report.cells.size() + 1);

  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"objectives_digest\""), std::string::npos);
}

TEST(Campaign, RunCellIsDeterministic) {
  const scenario::ScenarioSpec spec = scenario::make_scenario("xu3-noisy-te");
  const CellResult a = CampaignRunner::run_cell(spec, "parmis", 9, 3);
  const CellResult b = CampaignRunner::run_cell(spec, "parmis", 9, 3);
  EXPECT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t p = 0; p < a.front.size(); ++p) {
    for (std::size_t j = 0; j < a.front[p].size(); ++j) {
      EXPECT_EQ(a.front[p][j], b.front[p][j]);
    }
  }
}

TEST(Campaign, SeedChangesResults) {
  const scenario::ScenarioSpec spec =
      scenario::make_scenario("xu3-mibench-te");
  const CellResult a = CampaignRunner::run_cell(spec, "parmis", 1, 3);
  const CellResult b = CampaignRunner::run_cell(spec, "parmis", 2, 3);
  CampaignReport ra, rb;
  ra.cells = {a};
  rb.cells = {b};
  EXPECT_NE(ra.objectives_digest(), rb.objectives_digest());
}

}  // namespace
}  // namespace parmis::exec
