// Tests for src/apps: the 12 paper benchmarks.  Verifies determinism,
// validity, and that each benchmark's phase mix matches its published
// characterization; random applications fuzz the simulator.
#include <gtest/gtest.h>

#include <set>

#include "apps/benchmarks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "soc/perf_model.hpp"
#include "soc/platform.hpp"

namespace parmis::apps {
namespace {

double mean_field(const soc::Application& app,
                  double soc::EpochWorkload::*field) {
  double total = 0.0;
  for (const auto& e : app.epochs) total += e.*field;
  return total / static_cast<double>(app.epochs.size());
}

TEST(Benchmarks, TwelveNamesMatchingPaperOrder) {
  const auto& names = benchmark_names();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names.front(), "basicmath");
  EXPECT_EQ(names.back(), "pca");
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(Benchmarks, AllBuildAndValidate) {
  for (const auto& name : benchmark_names()) {
    const soc::Application app = make_benchmark(name);
    EXPECT_NO_THROW(app.validate()) << app.name;
    EXPECT_GE(app.num_epochs(), 15u) << app.name;
    EXPECT_GT(app.total_instructions_g(), 0.5) << app.name;
  }
}

TEST(Benchmarks, DeterministicAcrossBuilds) {
  for (const auto& name : benchmark_names()) {
    const soc::Application a = make_benchmark(name);
    const soc::Application b = make_benchmark(name);
    ASSERT_EQ(a.num_epochs(), b.num_epochs()) << name;
    for (std::size_t e = 0; e < a.num_epochs(); ++e) {
      EXPECT_DOUBLE_EQ(a.epochs[e].instructions_g,
                       b.epochs[e].instructions_g)
          << name << " epoch " << e;
      EXPECT_DOUBLE_EQ(a.epochs[e].mem_bytes_per_instr,
                       b.epochs[e].mem_bytes_per_instr);
    }
  }
}

TEST(Benchmarks, DistinctAppsHaveDistinctWorkloads) {
  const soc::Application a = make_benchmark("sha");
  const soc::Application b = make_benchmark("spectral");
  EXPECT_NE(a.epochs[0].mem_bytes_per_instr, b.epochs[0].mem_bytes_per_instr);
}

TEST(Benchmarks, UnknownNameThrows) {
  EXPECT_THROW(make_benchmark("doom"), Error);
}

TEST(Benchmarks, ShaIsSerialComputeBound) {
  const soc::Application sha = make_benchmark("sha");
  EXPECT_LT(mean_field(sha, &soc::EpochWorkload::parallel_fraction), 0.2);
  EXPECT_LT(mean_field(sha, &soc::EpochWorkload::mem_bytes_per_instr), 0.15);
  EXPECT_GT(mean_field(sha, &soc::EpochWorkload::duty), 0.95);
}

TEST(Benchmarks, SpectralIsMemoryBoundParallel) {
  const soc::Application s = make_benchmark("spectral");
  EXPECT_GT(mean_field(s, &soc::EpochWorkload::mem_bytes_per_instr), 1.0);
  EXPECT_GT(mean_field(s, &soc::EpochWorkload::parallel_fraction), 0.65);
}

TEST(Benchmarks, MotionEstIsHighlyParallel) {
  const soc::Application m = make_benchmark("motionest");
  EXPECT_GT(mean_field(m, &soc::EpochWorkload::parallel_fraction), 0.8);
}

TEST(Benchmarks, QsortIsBranchy) {
  const soc::Application q = make_benchmark("qsort");
  const soc::Application s = make_benchmark("sha");
  EXPECT_GT(mean_field(q, &soc::EpochWorkload::branch_miss_rate),
            3.0 * mean_field(s, &soc::EpochWorkload::branch_miss_rate));
}

TEST(Benchmarks, DijkstraIsMemoryLatencyBoundSerial) {
  const soc::Application d = make_benchmark("dijkstra");
  EXPECT_GT(mean_field(d, &soc::EpochWorkload::mem_bytes_per_instr), 0.7);
  EXPECT_LT(mean_field(d, &soc::EpochWorkload::parallel_fraction), 0.3);
}

TEST(Benchmarks, KmeansAlternatesPhases) {
  const soc::Application k = make_benchmark("kmeans");
  // Phase alternation shows up as bimodal memory intensity.
  int low = 0, high = 0;
  for (const auto& e : k.epochs) {
    if (e.mem_bytes_per_instr < 0.7) ++low;
    if (e.mem_bytes_per_instr > 0.7) ++high;
  }
  EXPECT_GT(low, 5);
  EXPECT_GT(high, 3);
}

TEST(Benchmarks, ExecutionTimesLandInPaperRanges) {
  // Shape calibration: at max performance the simulated runtimes should
  // land near the paper's figure axes (Fig. 3: qsort/pca low seconds;
  // Fig. 6: basicmath the longest app, dijkstra short).
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  auto time_at_max = [&](const std::string& name) {
    const soc::Application app = make_benchmark(name);
    double total = 0.0;
    for (const auto& e : app.epochs) {
      total +=
          platform.run_epoch(e, space.max_performance_decision()).time_s;
    }
    return total;
  };
  const double qsort_t = time_at_max("qsort");
  EXPECT_GT(qsort_t, 0.7);
  EXPECT_LT(qsort_t, 3.0);
  const double pca_t = time_at_max("pca");
  EXPECT_GT(pca_t, 0.8);
  EXPECT_LT(pca_t, 4.5);
  const double basicmath_t = time_at_max("basicmath");
  EXPECT_GT(basicmath_t, 3.0);
  EXPECT_LT(basicmath_t, 12.0);
  const double dijkstra_t = time_at_max("dijkstra");
  EXPECT_GT(dijkstra_t, 0.4);
  EXPECT_LT(dijkstra_t, 3.0);
  // Every app completes within the low tens of seconds even at minimum
  // performance budgets are sane: spot-check the remaining apps at max.
  for (const auto& name : benchmark_names()) {
    const double t = time_at_max(name);
    EXPECT_GT(t, 0.3) << name;
    EXPECT_LT(t, 15.0) << name;
  }
}

/// Random application: `num_epochs` epochs with every field drawn from
/// its valid range.
soc::Application random_application(Rng& rng, std::size_t num_epochs) {
  soc::Application app;
  app.name = "random";
  for (std::size_t i = 0; i < num_epochs; ++i) {
    soc::EpochWorkload e;
    e.instructions_g = rng.uniform(0.05, 2.0);
    e.parallel_fraction = rng.uniform(0.0, 1.0);
    e.mem_bytes_per_instr = rng.uniform(0.02, 2.0);
    e.branch_miss_rate = rng.uniform(0.0, 0.05);
    e.ilp = rng.uniform(0.2, 1.0);
    e.big_affinity = rng.uniform(0.0, 1.0);
    e.duty = rng.uniform(0.6, 1.0);
    app.epochs.push_back(e);
  }
  app.validate();
  return app;
}

TEST(RandomApplication, RunsThroughSimulatorFuzz) {
  const soc::SocSpec spec = soc::SocSpec::exynos5422();
  soc::Platform platform(spec);
  const soc::DecisionSpace& space = platform.decision_space();
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const soc::Application app = random_application(rng, 20);
    for (const auto& e : app.epochs) {
      const auto d = space.decision(rng.uniform_index(space.size()));
      const soc::EpochResult r = platform.run_epoch(e, d);
      EXPECT_GT(r.time_s, 0.0);
      EXPECT_GT(r.energy_j, 0.0);
    }
  }
}

}  // namespace
}  // namespace parmis::apps
