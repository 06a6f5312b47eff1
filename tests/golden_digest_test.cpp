// Golden-digest regression tests: pinned objectives_digest() values for
// a tiny fixed-seed campaign over every registry scenario, with each
// scenario's own method list (parmis + its governor baselines).
//
// The digest hashes the bit patterns of every cell's objective vectors,
// so ANY numeric drift anywhere in the stack — numerics, GP, kernels,
// acquisition, NSGA-II, the SoC model, evaluator, scenario
// materialization, RNG streams — changes at least one pinned value and
// fails this suite loudly.  That is the point: unintended drift must
// never land silently.
//
// If a change is *supposed* to alter results (model fix, new evaluator
// semantics), re-pin: run this test, copy the `actual` digests it
// prints from the failure messages into kGolden below, and bump
// cache::kCacheSchemaVersion so stale content-addressed cache entries
// invalidate together with the pins.
//
// The pins are IEEE-754-deterministic for a given binary.  They are
// computed at default optimization on x86-64/aarch64 with strict FP
// (no -ffast-math); a toolchain with different FP contraction may
// legitimately need a re-pin — the failure message says how.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "exec/campaign.hpp"
#include "scenario/scenario.hpp"

namespace parmis::exec {
namespace {

/// Deliberately minuscule PaRMIS budget: the golden suite exists to
/// detect numeric drift, not to measure optimization quality, so every
/// subsystem just needs to be *exercised* deterministically.
core::ParmisConfig golden_budget() {
  core::ParmisConfig config;
  config.num_initial = 2;
  config.max_iterations = 1;
  config.acq_pool_size = 8;
  config.acq_refine_steps = 2;
  config.hyperopt_interval = 100;  // never fires within one iteration
  config.hyperopt_candidates = 2;
  config.acquisition.rff_features = 16;
  config.acquisition.front_sampler.population_size = 8;
  config.acquisition.front_sampler.generations = 4;
  return config;
}

std::uint64_t scenario_digest(const std::string& name) {
  CampaignConfig config;
  config.scenarios = {scenario::make_scenario(name)};
  config.scenarios[0].parmis = golden_budget();
  config.num_threads = 0;  // hardware; the digest is thread-count-invariant
  config.seeds_per_cell = 1;
  config.base_seed = 1;
  config.anchor_limit = 1;
  const CampaignReport report = CampaignRunner(config).run();
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.error.empty())
        << name << "/" << cell.method << ": " << cell.error;
  }
  return report.objectives_digest();
}

struct GoldenEntry {
  const char* scenario;
  std::uint64_t digest;
};

// One pinned digest per registry scenario (scenario's full method list,
// seed 1, golden_budget(), anchor_limit 1).  Regenerate via the failure
// messages printed by ObjectivesMatchPinnedValues.
constexpr GoldenEntry kGolden[] = {
    {"xu3-mibench-te", 0x90d07404e74d4595ULL},
    {"xu3-cortex-ppw", 0xfbe23cadcf08715bULL},
    {"xu3-all12-te", 0x32347ff9061d215eULL},
    {"xu3-thermal-tpp", 0x3f714fa212de938aULL},
    {"xu3-synthetic-te", 0xf4cb65f99dc7991bULL},
    {"xu3-noisy-te", 0xce75c55330747589ULL},
    {"manycore-mixed-te", 0x5e242d5191bead2fULL},
    {"manycore-synthetic-eppw", 0x92c3860e0872814cULL},
    {"mobile3-interactive-ppw", 0x3a619046c11e9e7cULL},
    {"mobile3-edp", 0x014e4888b2898a1fULL},
};

TEST(GoldenDigest, CoversTheWholeRegistry) {
  const auto& names = scenario::scenario_names();
  ASSERT_EQ(std::size(kGolden), names.size())
      << "a scenario was added or removed: extend kGolden";
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], kGolden[i].scenario) << "registry order changed";
  }
}

TEST(GoldenDigest, ObjectivesMatchPinnedValues) {
  // Escape hatch for toolchains whose libm legitimately rounds
  // differently (the pins are per-toolchain by nature): set
  // PARMIS_GOLDEN_SKIP=1 to unblock a red pipeline while re-pinning.
  // Determinism *within* the running toolchain is still enforced below.
  const char* skip = std::getenv("PARMIS_GOLDEN_SKIP");
  if (skip != nullptr && std::string(skip) == "1") {
    for (const GoldenEntry& entry : kGolden) {
      std::ostringstream hex;
      hex << std::hex << "0x" << scenario_digest(entry.scenario);
      std::cout << "golden re-pin: {\"" << entry.scenario << "\", "
                << hex.str() << "ULL},\n";
    }
    GTEST_SKIP() << "PARMIS_GOLDEN_SKIP=1: printed re-pin values instead";
  }
  for (const GoldenEntry& entry : kGolden) {
    const std::uint64_t actual = scenario_digest(entry.scenario);
    std::ostringstream hex;
    hex << std::hex << "expected 0x" << entry.digest << ", actual 0x"
        << actual;
    EXPECT_EQ(actual, entry.digest)
        << "numeric drift in scenario " << entry.scenario << ": "
        << hex.str()
        << "\nFIRST SUSPECT: the GP inference path.  Every GP "
           "covariance and prediction runs through "
           "gp::squared_distances (and GpRegressor's r^2 cache) and "
           "GpRegressor::predict_from_r2, which promise BITWISE "
           "equality with the scalar oracle in gp_test — if you "
           "touched them, a kernel's "
           "covariance_from_r2, the batched solves "
           "(num::matmul_blocked / num::solve_lower_many), or "
           "InformationGainAcquisition::values, run the equivalence "
           "suites first:\n"
           "  ./build/gp_test --gtest_filter='PredictMany.*'\n"
           "  ./build/numerics_test --gtest_filter='Batch.*'\n"
           "  ./build/core_test --gtest_filter='Acquisition.Batched*'\n"
           "A batched-path change must never be 'fixed' by re-pinning.\n"
           "If the drift comes from an intentional modeling/numerics "
           "change instead, update kGolden in "
           "tests/golden_digest_test.cpp with the actual value above AND "
           "bump parmis::cache::kCacheSchemaVersion.";
  }
}

TEST(GoldenDigest, LearnedBaselinesMatchPinnedValue) {
  // examples/plans/learned_baselines.json at three seeds: rl, il and
  // dypo at their default configs on xu3-synthetic-te.  IL and DyPO
  // share each run's oracle tables; the pin was taken when every cell
  // still built its own, so sharing may never move a bit.
  CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  config.scenarios[0].methods = {"rl", "il", "dypo"};
  config.num_threads = 0;  // hardware; the digest is thread-count-invariant
  config.seeds_per_cell = 3;
  config.base_seed = 1;
  config.anchor_limit = 3;
  const CampaignReport report = CampaignRunner(config).run();
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.method << ": " << cell.error;
  }
  const std::uint64_t actual = report.objectives_digest();
  const char* skip = std::getenv("PARMIS_GOLDEN_SKIP");
  if (skip != nullptr && std::string(skip) == "1") {
    std::ostringstream hex;
    hex << std::hex << "0x" << actual;
    GTEST_SKIP() << "PARMIS_GOLDEN_SKIP=1: re-pin value " << hex.str();
  }
  EXPECT_EQ(actual, 0xcb0d1ba6b6a10f36ULL)
      << "numeric drift in the learned baselines (rl/il/dypo)";
}

TEST(GoldenDigest, DigestFunctionItselfIsPinned) {
  // Pure-integer pin: a synthetic report with literal doubles has a
  // digest fixed by the hash algorithm alone, independent of any
  // floating-point computation.  If THIS fails, the digest algorithm
  // changed — which silently orphans every golden value and every
  // content-addressed artifact derived from digests.
  CampaignReport report;
  CellResult cell;
  cell.scenario = "pin";
  cell.method = "unit";
  cell.seed = 42;
  cell.evaluations = 3;
  cell.front = {{1.0, 2.0}, {0.5, -0.25}};
  report.cells = {cell};
  EXPECT_EQ(report.objectives_digest(), 0x8413e35b4d5bc8d1ULL)
      << "objectives_digest() algorithm changed: re-pin every golden "
         "value and bump cache::kCacheSchemaVersion";
}

}  // namespace
}  // namespace parmis::exec
