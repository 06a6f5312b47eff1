// Tests for src/serde: the ScenarioSpec/CampaignPlan JSON layer.
//
// The load-bearing contract: load(save(spec)) must reproduce
// scenario::canonical_serialize(spec) byte for byte — content-addressed
// cache keys may never move because a spec took the JSON path.  Plus
// strict decoding (unknown keys/types/objectives rejected with
// context), plan round-trips, the scenario catalogue, shard slicing
// that partitions the cell list, and a golden pin of the default
// campaign plan.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/result_cache.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exec/campaign.hpp"
#include "methods/builtin.hpp"
#include "methods/registry.hpp"
#include "report/report_json.hpp"
#include "scenario/scenario.hpp"
#include "serde/json_util.hpp"
#include "serde/plan.hpp"
#include "serde/scenario_json.hpp"
#include "fuzz_mutations.hpp"

// Counting replacement of the global allocation functions, local to
// this test executable: the decoder tests below assert how many heap
// allocations a decode makes.  Counted per thread, so a pool thread
// left over from another test cannot disturb a measurement.  Out of
// line, so GCC does not pair an inlined std::free with its built-in
// operator new and warn (-Wmismatched-new-delete).
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace parmis::serde {
namespace {

std::string temp_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string path = ::testing::TempDir() + "parmis_serde_" + tag +
                           "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(path);
  return path;
}

/// One full JSON round trip: struct -> doc -> text -> doc -> struct.
scenario::ScenarioSpec round_trip(const scenario::ScenarioSpec& spec) {
  const std::string text = json::dump(scenario_to_json(spec));
  return scenario_from_json(json::parse(text), "round-trip");
}

// --------------------------------------------------- scenario round trip

TEST(ScenarioSerde, AllRegistryScenariosRoundTripCanonicalBytes) {
  for (const auto& spec : scenario::all_scenarios()) {
    SCOPED_TRACE(spec.name);
    const scenario::ScenarioSpec loaded = round_trip(spec);
    // Byte-for-byte: the canonical serialization (hence every cache
    // key) is unchanged by the JSON path.
    EXPECT_EQ(scenario::canonical_serialize(loaded),
              scenario::canonical_serialize(spec));
    // Non-canonical fields the campaign still needs must survive too.
    EXPECT_EQ(loaded.description, spec.description);
    EXPECT_EQ(loaded.methods, spec.methods);
    EXPECT_NO_THROW(loaded.validate());
  }
}

TEST(ScenarioSerde, CacheKeysUnaffectedByJsonPath) {
  for (const auto& spec : scenario::all_scenarios()) {
    SCOPED_TRACE(spec.name);
    const scenario::ScenarioSpec loaded = round_trip(spec);
    EXPECT_EQ(cache::cell_key(loaded, "parmis", 1, 3),
              cache::cell_key(spec, "parmis", 1, 3));
  }
}

/// Random double from raw bits, skewed toward hostile values (subnormal,
/// inf, NaN payloads) — the serializer must not care.
double fuzz_double(Rng& rng) {
  const std::uint64_t bits = rng.next_u64();
  return std::bit_cast<double>(bits);
}

scenario::ScenarioSpec fuzz_spec(Rng& rng) {
  scenario::ScenarioSpec spec;
  spec.name = "fuzz-" + std::to_string(rng.next_u64());
  spec.description = "desc \"quoted\"\n\ttabbed\xc3\xa9";
  const auto& variants = soc::SocSpec::variant_names();
  spec.platform = variants[rng.uniform_index(variants.size())];
  spec.platform_config.sensor_noise_sd = fuzz_double(rng);
  spec.platform_config.noise_seed = rng.next_u64();
  spec.platform_config.charge_dvfs_transitions = rng.bernoulli(0.5);
  if (rng.bernoulli(0.7)) spec.benchmark_apps = {"qsort", "sha"};
  if (rng.bernoulli(0.6)) {
    scenario::WorkloadGenConfig gen;
    gen.num_apps = rng.uniform_index(5);
    gen.min_phases = rng.uniform_index(4);
    gen.max_phases = rng.uniform_index(6);
    gen.min_run_length = rng.uniform_index(4);
    gen.max_run_length = rng.uniform_index(8);
    gen.jitter = fuzz_double(rng);
    gen.name_prefix = "p\"x\n";
    const std::size_t n_arch = rng.uniform_index(3);
    for (std::size_t i = 0; i < n_arch; ++i) {
      scenario::EpochDistribution d;
      d.label = "arch-" + std::to_string(i);
      d.instructions_g_min = fuzz_double(rng);
      d.instructions_g_max = fuzz_double(rng);
      d.parallel_fraction_min = fuzz_double(rng);
      d.parallel_fraction_max = fuzz_double(rng);
      d.mem_bytes_per_instr_min = fuzz_double(rng);
      d.mem_bytes_per_instr_max = fuzz_double(rng);
      d.branch_miss_rate_min = fuzz_double(rng);
      d.branch_miss_rate_max = fuzz_double(rng);
      d.ilp_min = fuzz_double(rng);
      d.ilp_max = fuzz_double(rng);
      d.big_affinity_min = fuzz_double(rng);
      d.big_affinity_max = fuzz_double(rng);
      d.duty_min = fuzz_double(rng);
      d.duty_max = fuzz_double(rng);
      gen.archetypes.push_back(d);
    }
    spec.generated = gen;
  }
  spec.workload_seed = rng.next_u64();
  spec.objectives.clear();
  const auto& kinds = runtime::all_objective_kinds();
  const std::size_t n_obj = 2 + rng.uniform_index(kinds.size() - 1);
  for (std::size_t i = 0; i < n_obj; ++i) {
    spec.objectives.push_back(kinds[rng.uniform_index(kinds.size())]);
  }
  spec.thermal = rng.bernoulli(0.5);
  spec.thermal_params.ambient_c = fuzz_double(rng);
  spec.thermal_params.resistance_c_per_w = fuzz_double(rng);
  spec.thermal_params.capacitance_j_per_c = fuzz_double(rng);
  spec.thermal_params.trip_point_c = fuzz_double(rng);
  spec.thermal_params.release_point_c = fuzz_double(rng);
  spec.methods = {"parmis", "scalarization"};
  core::ParmisConfig& p = spec.parmis;
  p.num_initial = rng.uniform_index(100);
  p.max_iterations = rng.uniform_index(1000);
  p.theta_bound = fuzz_double(rng);
  p.kernel = rng.bernoulli(0.5) ? "rbf" : "matern52";
  p.noise_variance = fuzz_double(rng);
  p.hyperopt_interval = rng.uniform_index(100);
  p.hyperopt_candidates = rng.uniform_index(100);
  p.acq_pool_size = rng.uniform_index(500);
  p.acq_refine_steps = rng.uniform_index(50);
  p.perturbation_sd = fuzz_double(rng);
  p.acquisition.num_mc_samples = rng.uniform_index(8);
  p.acquisition.rff_features = rng.uniform_index(256);
  moo::Nsga2Config& fs = p.acquisition.front_sampler;
  fs.population_size = rng.uniform_index(128);
  fs.generations = rng.uniform_index(100);
  fs.crossover_probability = fuzz_double(rng);
  fs.sbx_eta = fuzz_double(rng);
  fs.mutation_probability = fuzz_double(rng);
  fs.mutation_eta = fuzz_double(rng);
  fs.seed = rng.next_u64();
  return spec;
}

TEST(ScenarioSerde, FuzzedSpecsRoundTripCanonicalBytes) {
  // Seeded random specs with hostile doubles (random bit patterns:
  // NaNs, infinities, subnormals) and u64s above 2^53.  The round trip
  // must be bit-exact regardless — these specs need not validate().
  Rng rng(0xF022u);
  for (int i = 0; i < 200; ++i) {
    const scenario::ScenarioSpec spec = fuzz_spec(rng);
    SCOPED_TRACE(spec.name);
    const scenario::ScenarioSpec loaded = round_trip(spec);
    ASSERT_EQ(scenario::canonical_serialize(loaded),
              scenario::canonical_serialize(spec));
    EXPECT_EQ(loaded.workload_seed, spec.workload_seed);
    EXPECT_EQ(loaded.parmis.acquisition.front_sampler.seed,
              spec.parmis.acquisition.front_sampler.seed);
  }
}

TEST(ScenarioSerde, FileRoundTrip) {
  const std::string path = temp_path("scenario") + ".json";
  const scenario::ScenarioSpec spec =
      scenario::make_scenario("manycore-mixed-te");
  save_scenario(path, spec);
  const scenario::ScenarioSpec loaded = load_scenario(path);
  EXPECT_EQ(scenario::canonical_serialize(loaded),
            scenario::canonical_serialize(spec));
}

// ------------------------------------------------------- strict decoding

void expect_decode_error(const std::string& text,
                         const std::string& needle) {
  try {
    scenario_from_json(json::parse(text), "test");
    FAIL() << "expected decode failure, needle: " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSerde, StrictDecodingRejectsBadDocuments) {
  expect_decode_error("{\"name\": \"x\", \"worklaod_seed\": 1}",
                      "unknown key \"worklaod_seed\"");
  expect_decode_error("{\"name\": 42}", "expected string");
  expect_decode_error("{\"name\": \"x\", \"objectives\": [\"joules\"]}",
                      "unknown objective \"joules\"");
  expect_decode_error("{\"schema\": \"parmis-scenario-v9\", \"name\": \"x\"}",
                      "unsupported scenario schema");
  expect_decode_error("{\"name\": \"x\", \"workload_seed\": 1.5}",
                      "expected an exact unsigned integer");
  expect_decode_error("{\"name\": \"x\", \"workload_seed\": -3}",
                      "expected an exact unsigned integer");
  expect_decode_error(
      "{\"name\": \"x\", \"generated\": {\"archetypes\": "
      "[{\"label\": \"a\", \"duty\": [0.5]}]}}",
      "expected [min, max]");
  // Errors inside nested structures name the scenario they belong to.
  expect_decode_error(
      "{\"name\": \"who\", \"platform_config\": {\"bogus\": 1}}",
      "scenario \"who\"");
}

TEST(ScenarioSerde, U64AboveDoublePrecisionTravelsAsString) {
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  spec.workload_seed = 0xFFFFFFFFFFFFFFFFULL;  // not a double-exact value
  const std::string text = json::dump(scenario_to_json(spec));
  EXPECT_NE(text.find("\"18446744073709551615\""), std::string::npos);
  EXPECT_EQ(round_trip(spec).workload_seed, spec.workload_seed);

  // 2^53 exactly: ambiguous as a number literal (2^53 + 1 rounds to
  // it), so the writer emits a string and the reader rejects the
  // number form instead of silently rounding.
  spec.workload_seed = 1ULL << 53;
  EXPECT_NE(json::dump(scenario_to_json(spec)).find("\"9007199254740992\""),
            std::string::npos);
  EXPECT_EQ(round_trip(spec).workload_seed, spec.workload_seed);
  expect_decode_error(
      "{\"name\": \"x\", \"workload_seed\": 9007199254740993}",
      "below 2^53");
}

// ------------------------------------------------------------------ plans

TEST(PlanSerde, GoldenDefaultCampaignPlan) {
  // Pinned wire format of `campaign --dump-plan` with no flags.  If
  // this fails because defaults deliberately changed, re-pin it AND
  // bump kPlanSchema per docs/plan_schema.md.  (v1 -> v2 happened when
  // the `method_configs` block landed; a defaults-only plan carries no
  // block, so only the schema tag moved.)
  const std::string golden =
      "{\n"
      "  \"schema\": \"parmis-plan-v2\",\n"
      "  \"name\": \"default-campaign\",\n"
      "  \"scenarios\": [\"xu3-mibench-te\", \"xu3-cortex-ppw\", "
      "\"xu3-all12-te\", \"xu3-thermal-tpp\", \"xu3-synthetic-te\", "
      "\"xu3-noisy-te\", \"manycore-mixed-te\", \"manycore-synthetic-eppw\", "
      "\"mobile3-interactive-ppw\", \"mobile3-edp\"],\n"
      "  \"seeds_per_cell\": 1,\n"
      "  \"base_seed\": 1,\n"
      "  \"anchor_limit\": 3,\n"
      "  \"full_budget\": false\n"
      "}\n";
  EXPECT_EQ(json::dump(plan_to_json(default_campaign_plan())), golden);
}

CampaignPlan rich_plan() {
  CampaignPlan plan;
  plan.name = "rich";
  plan.scenarios.push_back(ScenarioRef::by_name("xu3-mibench-te"));
  plan.scenarios.push_back(
      ScenarioRef::inlined(scenario::make_scenario("mobile3-edp")));
  plan.methods = {"parmis", "scalarization", "ondemand"};
  plan.seeds_per_cell = 3;
  plan.base_seed = 17;
  plan.anchor_limit = 2;
  plan.full_budget = true;
  plan.cache.dir = ".cache-here";
  plan.shard = exec::ShardSpec{2, 5};
  return plan;
}

TEST(PlanSerde, RichPlanRoundTripsThroughFile) {
  const std::string path = temp_path("plan") + ".json";
  const CampaignPlan plan = rich_plan();
  save_plan(path, plan);
  const CampaignPlan loaded = load_plan(path);
  EXPECT_EQ(loaded.name, plan.name);
  ASSERT_EQ(loaded.scenarios.size(), 2u);
  EXPECT_EQ(loaded.scenarios[0].name, "xu3-mibench-te");
  EXPECT_FALSE(loaded.scenarios[0].inline_spec.has_value());
  ASSERT_TRUE(loaded.scenarios[1].inline_spec.has_value());
  EXPECT_EQ(scenario::canonical_serialize(*loaded.scenarios[1].inline_spec),
            scenario::canonical_serialize(*plan.scenarios[1].inline_spec));
  EXPECT_EQ(loaded.methods, plan.methods);
  EXPECT_EQ(loaded.seeds_per_cell, plan.seeds_per_cell);
  EXPECT_EQ(loaded.base_seed, plan.base_seed);
  EXPECT_EQ(loaded.anchor_limit, plan.anchor_limit);
  EXPECT_EQ(loaded.full_budget, plan.full_budget);
  EXPECT_EQ(loaded.cache.dir, plan.cache.dir);
  ASSERT_TRUE(loaded.shard.has_value());
  EXPECT_EQ(loaded.shard->index, 2u);
  EXPECT_EQ(loaded.shard->count, 5u);
}

TEST(PlanSerde, ValidationRejectsBadPlans) {
  CampaignPlan plan = rich_plan();
  plan.methods = {"parmis", "no-such-method"};
  EXPECT_THROW(plan.validate(), Error);

  plan = rich_plan();
  plan.scenarios.clear();
  EXPECT_THROW(plan.validate(), Error);

  plan = rich_plan();
  plan.seeds_per_cell = 0;
  EXPECT_THROW(plan.validate(), Error);

  plan = rich_plan();
  plan.shard = exec::ShardSpec{5, 5};  // index out of range
  EXPECT_THROW(plan.validate(), Error);

  // The scalarization baseline is a first-class method name.
  plan = rich_plan();
  plan.methods = {"scalarization"};
  EXPECT_NO_THROW(plan.validate());

  // So are the learned baselines wired through the method registry.
  plan = rich_plan();
  plan.methods = {"rl", "il", "dypo"};
  EXPECT_NO_THROW(plan.validate());

  // Unknown-method errors list every registered name.
  plan = rich_plan();
  plan.methods = {"no-such-method"};
  try {
    plan.validate();
    FAIL() << "expected validation failure";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("registered:"), std::string::npos) << what;
    EXPECT_NE(what.find("parmis"), std::string::npos) << what;
    EXPECT_NE(what.find("rl"), std::string::npos) << what;
  }

  // method_configs entries must name registered methods.
  plan = rich_plan();
  plan.method_configs.set(
      "no-such-method", std::make_shared<methods::RlMethodConfig>());
  EXPECT_THROW(plan.validate(), Error);
}

// --------------------------------------------------- plan v1/v2 schemas

TEST(PlanSerde, EveryUnknownMethodErrorListsTheRegisteredNames) {
  // The roster is built only when a check fails, and still lands in
  // every message: spec validation, plan validation and plan decode.
  const std::string roster =
      " (registered: " + methods::MethodRegistry::instance().joined_names() +
      ")";
  const auto message = [](const auto& fn) {
    try {
      fn();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  spec.methods = {"no-such-method"};
  EXPECT_NE(message([&] { spec.validate(); })
                .find("unknown method: no-such-method" + roster),
            std::string::npos);

  CampaignPlan plan;
  plan.name = "unknown-config";
  plan.scenarios = {ScenarioRef::by_name("xu3-mibench-te")};
  plan.method_configs.set("no-such-method",
                          std::make_shared<methods::RlMethodConfig>());
  EXPECT_NE(message([&] { plan.validate(); })
                .find("method_configs entry for unknown method: "
                      "no-such-method" + roster),
            std::string::npos);

  const json::Value doc = json::parse(
      "{\"schema\": \"parmis-plan-v2\", \"name\": \"decode\","
      " \"scenarios\": [\"xu3-mibench-te\"],"
      " \"method_configs\": {\"no-such-method\": {}}}");
  EXPECT_NE(message([&] { (void)plan_from_json(doc, "doc"); })
                .find("method_configs: unknown method: no-such-method" +
                      roster),
            std::string::npos);
}

TEST(PlanSerde, V1DocumentsStillLoadUnchanged) {
  // A pre-method_configs document must keep loading byte-for-byte
  // semantics: same scenarios, same defaults, empty config set.
  const std::string v1 =
      "{\"schema\": \"parmis-plan-v1\", \"name\": \"legacy\","
      " \"scenarios\": [\"xu3-mibench-te\"], \"methods\": [\"parmis\"],"
      " \"seeds_per_cell\": 2}";
  const CampaignPlan plan = plan_from_json(json::parse(v1), "v1-doc");
  EXPECT_EQ(plan.name, "legacy");
  EXPECT_EQ(plan.seeds_per_cell, 2u);
  EXPECT_TRUE(plan.method_configs.empty());

  // But a v1 document cannot smuggle in a v2-only block.
  const std::string bad =
      "{\"schema\": \"parmis-plan-v1\", \"scenarios\": [\"mobile3-edp\"],"
      " \"method_configs\": {\"rl\": {\"episodes\": 4}}}";
  try {
    plan_from_json(json::parse(bad), "v1-doc");
    FAIL() << "expected schema mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("requires schema"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanSerde, MethodConfigsRoundTripThroughFile) {
  CampaignPlan plan;
  plan.name = "tuned";
  plan.scenarios.push_back(ScenarioRef::by_name("xu3-synthetic-te"));
  plan.methods = {"rl", "il", "dypo", "scalarization"};
  auto rl = std::make_shared<methods::RlMethodConfig>();
  rl->episodes = 4;
  rl->grid_divisions = 2;
  rl->learning_rate = 0.03;
  auto il = std::make_shared<methods::IlMethodConfig>();
  il->dagger_rounds = 0;
  il->training_passes = 5;
  auto dypo = std::make_shared<methods::DypoMethodConfig>();
  dypo->num_clusters = 2;
  plan.method_configs.set("rl", rl);
  plan.method_configs.set("il", il);
  plan.method_configs.set("dypo", dypo);

  const std::string path = temp_path("plan_configs") + ".json";
  save_plan(path, plan);
  const std::string text = *read_file(path);
  EXPECT_NE(text.find("\"parmis-plan-v2\""), std::string::npos);
  EXPECT_NE(text.find("\"method_configs\""), std::string::npos);

  const CampaignPlan loaded = load_plan(path);
  ASSERT_EQ(loaded.method_configs.size(), 3u);
  // Typed equality via each method's canonical bytes (the cache-key
  // currency): the round trip may not move a single bit.
  for (const char* name : {"rl", "il", "dypo"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(methods::canonical_method_config(name, loaded.method_configs),
              methods::canonical_method_config(name, plan.method_configs));
    EXPECT_FALSE(
        methods::canonical_method_config(name, loaded.method_configs)
            .empty());
  }
  // No entry for scalarization: defaults, hence empty canonical bytes.
  EXPECT_TRUE(methods::canonical_method_config("scalarization",
                                               loaded.method_configs)
                  .empty());

  // Strict decode: a typo inside a method's config block names the
  // method and rejects the key.
  const std::string bad =
      "{\"schema\": \"parmis-plan-v2\", \"scenarios\": [\"mobile3-edp\"],"
      " \"method_configs\": {\"rl\": {\"episdoes\": 4}}}";
  try {
    plan_from_json(json::parse(bad), "v2-doc");
    FAIL() << "expected strict-decode failure";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("method_configs.rl"), std::string::npos) << what;
    EXPECT_NE(what.find("episdoes"), std::string::npos) << what;
  }

  // Governors have no knobs; a config block for one is rejected.
  const std::string knobless =
      "{\"schema\": \"parmis-plan-v2\", \"scenarios\": [\"mobile3-edp\"],"
      " \"method_configs\": {\"performance\": {}}}";
  try {
    plan_from_json(json::parse(knobless), "v2-doc");
    FAIL() << "expected no-config failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("takes no configuration"),
              std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- catalogue

TEST(ScenarioCatalogue, BuiltinsPlusUserDirectory) {
  const std::string dir = temp_path("catalogue");
  std::filesystem::create_directories(dir);
  scenario::ScenarioSpec custom = scenario::make_scenario("xu3-mibench-te");
  custom.name = "user-custom";
  save_scenario(dir + "/custom.json", custom);

  ScenarioCatalogue catalogue;
  EXPECT_EQ(catalogue.add_directory(dir), 1u);
  EXPECT_TRUE(catalogue.contains("user-custom"));
  EXPECT_TRUE(catalogue.contains("xu3-mibench-te"));
  EXPECT_EQ(catalogue.names().size(),
            scenario::scenario_names().size() + 1);
  EXPECT_EQ(catalogue.get("user-custom").name, "user-custom");
  EXPECT_THROW(catalogue.get("missing"), Error);

  // Shadowing a built-in (or re-adding a user name) is rejected.
  scenario::ScenarioSpec shadow = scenario::make_scenario("mobile3-edp");
  EXPECT_THROW(catalogue.add(shadow), Error);
  EXPECT_THROW(catalogue.add(custom), Error);
}

TEST(PlanResolve, MethodOverrideAndValidationContext) {
  CampaignPlan plan;
  plan.scenarios.push_back(ScenarioRef::by_name("xu3-mibench-te"));
  plan.scenarios.push_back(ScenarioRef::by_name("mobile3-edp"));
  plan.methods = {"scalarization", "powersave"};
  ScenarioCatalogue catalogue;
  const auto specs = resolve_scenarios(plan, catalogue);
  ASSERT_EQ(specs.size(), 2u);
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.methods, plan.methods);
  }

  // A broken inline spec names itself in the resolve error.
  scenario::ScenarioSpec bad = scenario::make_scenario("xu3-mibench-te");
  bad.name = "broken-one";
  bad.objectives = {runtime::ObjectiveKind::Energy};
  CampaignPlan bad_plan;
  bad_plan.scenarios.push_back(ScenarioRef::inlined(bad));
  try {
    resolve_scenarios(bad_plan, catalogue);
    FAIL() << "expected resolve failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broken-one"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- sharding

TEST(Sharding, RangePartitionsEveryTotalExactlyOnce) {
  for (std::size_t total : {0u, 1u, 5u, 12u, 97u, 1000u}) {
    for (std::size_t count : {1u, 2u, 3u, 7u, 13u, 1001u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const auto [begin, end] =
            exec::shard_range(total, exec::ShardSpec{i, count});
        EXPECT_EQ(begin, prev_end);  // contiguous, in order, no overlap
        EXPECT_LE(end, total);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
  EXPECT_THROW(exec::shard_range(10, exec::ShardSpec{3, 3}), Error);
  EXPECT_THROW(exec::shard_range(10, exec::ShardSpec{0, 0}), Error);

  // Huge shard indices must not overflow size_t arithmetic: a far-out
  // shard of a small campaign is simply an empty, in-range slice.
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const auto [begin, end] =
      exec::shard_range(10, exec::ShardSpec{huge - 1, huge});
  EXPECT_EQ(begin, 10u);
  EXPECT_EQ(end, 10u);
}

exec::CampaignConfig governor_campaign() {
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-mibench-te"),
                      scenario::make_scenario("mobile3-edp")};
  for (auto& s : config.scenarios) {
    s.methods = {"performance", "powersave", "ondemand"};
  }
  config.seeds_per_cell = 2;
  config.num_threads = 2;
  return config;
}

TEST(Sharding, ShardedCampaignsReassembleTheUnshardedRun) {
  const exec::CampaignReport full =
      exec::CampaignRunner(governor_campaign()).run();
  ASSERT_EQ(full.cells.size(), 12u);
  EXPECT_EQ(full.shard.count, 1u);
  EXPECT_EQ(full.total_cells, 12u);

  // 5 shards over 12 cells: uneven slices, reassembled in order.
  exec::CampaignReport merged;
  for (std::size_t i = 0; i < 5; ++i) {
    exec::CampaignConfig config = governor_campaign();
    config.shard = exec::ShardSpec{i, 5};
    const exec::CampaignReport part = exec::CampaignRunner(config).run();
    EXPECT_EQ(part.shard.index, i);
    EXPECT_EQ(part.total_cells, 12u);
    merged.cells.insert(merged.cells.end(), part.cells.begin(),
                        part.cells.end());
  }
  ASSERT_EQ(merged.cells.size(), full.cells.size());
  // Bit-identical objectives: sharding cannot move cell results.
  EXPECT_EQ(merged.objectives_digest(), full.objectives_digest());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    EXPECT_EQ(merged.cells[i].scenario, full.cells[i].scenario);
    EXPECT_EQ(merged.cells[i].method, full.cells[i].method);
    EXPECT_EQ(merged.cells[i].seed, full.cells[i].seed);
  }
}

TEST(Sharding, ReportsEchoShardMetadata) {
  exec::CampaignConfig config = governor_campaign();
  config.shard = exec::ShardSpec{1, 3};
  const exec::CampaignReport report = exec::CampaignRunner(config).run();
  std::ostringstream csv;
  report.write_csv(csv);
  EXPECT_NE(csv.str().find("shard_index,shard_count"), std::string::npos);
  EXPECT_NE(csv.str().find(",1,3,"), std::string::npos);
  std::ostringstream js;
  report.write_json(js);
  EXPECT_NE(js.str().find("\"shard_index\": 1"), std::string::npos);
  EXPECT_NE(js.str().find("\"shard_count\": 3"), std::string::npos);
  EXPECT_NE(js.str().find("\"total_cells\": 12"), std::string::npos);
}

// ------------------------------------------- plan-driven runs + the cache

TEST(PlanCampaign, PlanDrivenRunFromCacheIsAllHits) {
  // Acceptance: a plan-file campaign re-executed against its cache is
  // 100% hits with an identical digest — i.e. the JSON path leaves
  // cache keys untouched.
  CampaignPlan plan;
  plan.scenarios.push_back(ScenarioRef::by_name("xu3-mibench-te"));
  plan.methods = {"performance", "random"};
  plan.seeds_per_cell = 2;
  ScenarioCatalogue catalogue;

  cache::ResultCache cache(temp_path("plan_cache"));
  exec::CampaignConfig config = to_campaign_config(plan, catalogue);
  config.cache = &cache;
  const exec::CampaignReport first = exec::CampaignRunner(config).run();
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, first.cells.size());

  // Round-trip the plan through disk, rebuild everything from JSON.
  const std::string path = temp_path("plan_rerun") + ".json";
  save_plan(path, plan);
  exec::CampaignConfig again = to_campaign_config(load_plan(path),
                                                  catalogue);
  again.cache = &cache;
  const exec::CampaignReport second = exec::CampaignRunner(again).run();
  EXPECT_EQ(second.cache_hits, second.cells.size());
  EXPECT_EQ(second.cache_misses, 0u);
  EXPECT_EQ(second.objectives_digest(), first.objectives_digest());
}

TEST(PlanCampaign, ScalarizationRunsDeterministically) {
  const scenario::ScenarioSpec spec =
      scenario::make_scenario("xu3-mibench-te");
  const exec::CellResult a =
      exec::CampaignRunner::run_cell(spec, "scalarization", 5, 3);
  const exec::CellResult b =
      exec::CampaignRunner::run_cell(spec, "scalarization", 5, 3);
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_GT(a.evaluations, 1u);
  ASSERT_FALSE(a.front.empty());
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t p = 0; p < a.front.size(); ++p) {
    for (std::size_t j = 0; j < a.front[p].size(); ++j) {
      EXPECT_EQ(a.front[p][j], b.front[p][j]);
    }
  }
  // A different seed explores differently.
  const exec::CellResult c =
      exec::CampaignRunner::run_cell(spec, "scalarization", 6, 3);
  exec::CampaignReport ra, rc;
  ra.cells = {a};
  rc.cells = {c};
  EXPECT_NE(ra.objectives_digest(), rc.objectives_digest());
}

// ------------------------------------------------------ ObjectReader

/// The what() of the parmis::Error `f` throws, without the
/// " [file:line in function]" source-location suffix.
template <typename F>
std::string failure_text(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    const std::string what = e.what();
    return what.substr(0, what.rfind(" ["));
  }
  return "<no error>";
}

TEST(ObjectReader, EveryAccessorFailsWithItsPinnedMessage) {
  const json::Value doc = json::parse(
      R"({"n":1.5,"s":"x","b":true,"neg":-1,"big":9007199254740992,)"
      R"("ovf":"18446744073709551616","long":"123456789012345678901",)"
      R"("hexu":"0123456789ABCDEF","hexs":"0123","nul":null,"arr":[]})");
  const std::string p = "parmis precondition failure: ctx: ";
  const auto reader = [&] { return ObjectReader(doc, "ctx"); };
  const auto text = [&](auto&& read) {
    return failure_text([&] {
      ObjectReader r = reader();
      read(r);
    });
  };

  EXPECT_EQ(failure_text([&] { ObjectReader(doc.at("arr"), "ctx"); }),
            p + "expected a JSON object, got array");
  EXPECT_EQ(text([](ObjectReader& r) { r.require_key("zz"); }),
            p + "missing required key \"zz\"");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_string("n"); }),
            p + "key \"n\": expected string, got number");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_bool("s", false); }),
            p + "key \"s\": expected bool, got string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_f64("s"); }),
            p + "key \"s\": expected number, got string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_f64("nul"); }),
            p + "key \"nul\": expected number, got null");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_f64("b", 0.0); }),
            p + "key \"b\": expected number, got bool");
  const std::string not_hex = "expected 16-hex-char string, got ";
  EXPECT_EQ(text([](ObjectReader& r) { r.get_hex64("n"); }),
            p + "key \"n\": " + not_hex + "number");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_hex64("hexs"); }),
            p + "key \"hexs\": " + not_hex + "string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_hex64("hexu", 0); }),
            p + "key \"hexu\": " + not_hex + "string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("s"); }),
            p + "key \"s\": expected unsigned integer, got string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("long"); }),
            p + "key \"long\": expected unsigned integer, got string");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("b"); }),
            p + "key \"b\": expected unsigned integer, got bool");
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("ovf"); }),
            p + "key \"ovf\": integer overflow");
  const std::string inexact =
      "expected an exact unsigned integer below 2^53 (use a decimal "
      "string for larger values)";
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("n"); }),
            p + "key \"n\": " + inexact);
  EXPECT_EQ(text([](ObjectReader& r) { r.get_u64("neg"); }),
            p + "key \"neg\": " + inexact);
  EXPECT_EQ(text([](ObjectReader& r) { r.get_size("big", 0); }),
            p + "key \"big\": " + inexact);
  EXPECT_EQ(text([](ObjectReader& r) {
              r.get_f64("n");
              r.finish();
            }),
            p + "unknown key \"s\"");
}

TEST(ObjectReader, AsF64AllocatesNothingPerNumber) {
  std::string text = "{\"xs\":[";
  for (int i = 0; i < 10000; ++i) {
    if (i > 0) text += ',';
    text += i % 100 == 0 ? "\"f64:7ff8000000000000\""
                         : json::format_double(i * 0.37 - 1e3);
  }
  text += "]}";
  const json::Value doc = json::parse(text);
  ObjectReader reader(doc, "a context long enough to need the heap");
  const json::Value& xs = reader.require_key("xs");
  const std::string key = "xs";
  double sum = 0.0;
  const std::size_t before = t_allocations;
  for (const json::Value& v : xs.items()) {
    const double d = reader.as_f64(v, key);
    if (d == d) sum += d;
  }
  EXPECT_EQ(t_allocations - before, 0u);
  EXPECT_NE(sum, 0.0);
}

TEST(ObjectReader, ReportDecodeAllocationsDoNotGrowWithThetaLength) {
  const auto decode_allocations = [](std::size_t theta_dim) {
    exec::CampaignReport report;
    report.num_threads = 1;
    report.shard = exec::ShardSpec{0, 1};
    report.total_cells = 1;
    exec::CellResult cell;
    cell.scenario = "a scenario name past the small-string buffer";
    cell.platform = "synthetic";
    cell.method = "parmis";
    cell.objective_names = {"time_s", "energy_j"};
    for (std::size_t i = 0; i < 3; ++i) {
      cell.front.push_back({1.0 + i, 3.0 - i});
      num::Vec theta(theta_dim);
      for (std::size_t j = 0; j < theta_dim; ++j) theta[j] = 0.001 * j - i;
      cell.pareto_thetas.push_back(std::move(theta));
    }
    report.cells.push_back(std::move(cell));
    const std::string text = json::dump(report::report_to_json(report));
    const std::string context = "a context long enough for the heap";
    const std::size_t before = t_allocations;
    const exec::CampaignReport back = report::parse_report(text, context);
    const std::size_t count = t_allocations - before;
    EXPECT_EQ(back.cells[0].pareto_thetas[2].size(), theta_dim);
    return count;
  };
  EXPECT_EQ(decode_allocations(895), decode_allocations(4));
}

// ------------------------------------------------------- hostile input

/// Runs `decode` over every fuzz::mutations case of `text`: each must
/// decode or throw parmis::Error, nothing else.  Returns the count of
/// (rejected, decoded) cases.
template <typename Decode>
std::pair<std::size_t, std::size_t> fuzz_decode(const std::string& text,
                                                std::uint64_t seed,
                                                Decode decode) {
  Rng rng(seed);
  std::size_t rejected = 0, decoded = 0;
  for (const std::string& mutated : fuzz::mutations(text, rng, 400)) {
    try {
      decode(mutated);
      ++decoded;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a parmis::Error: " << e.what() << "\n" << mutated;
    }
  }
  return {rejected, decoded};
}

TEST(PlanFuzz, MutatedShippedPlansLoadAndResolveOrFailCleanly) {
  // What every launch does first: load_plan, then resolve the plan
  // against a catalogue holding its inline scenarios.  The inline plan
  // carries scenario documents, so their decoder is fuzzed here too.
  for (const char* name : {"method_matrix.json", "mobile3_inline.json",
                           "manycore_sharded.json"}) {
    const std::optional<std::string> text =
        read_file(std::string(PARMIS_EXAMPLES_DIR "/plans/") + name);
    ASSERT_TRUE(text.has_value()) << name;
    std::size_t case_index = 0;
    const auto [rejected, decoded] =
        fuzz_decode(*text, 0x5EEDF1A0, [&](const std::string& mutated) {
          // A fresh path per case: replacing one file over and over
          // makes some filesystems flush on every rename.
          const std::string path = ::testing::TempDir() + "parmis_plan_fuzz_" +
                                   std::to_string(::getpid()) + "_" +
                                   std::to_string(case_index++) + ".json";
          std::ofstream(path, std::ios::binary) << mutated;
          struct Remove {
            const std::string& path;
            ~Remove() { std::filesystem::remove(path); }
          } remove{path};
          const CampaignPlan plan = load_plan(path);
          ScenarioCatalogue catalogue;
          for (const ScenarioRef& ref : plan.scenarios) {
            if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
          }
          (void)to_campaign_config(plan, catalogue);
        });
    EXPECT_GT(rejected, text->size()) << name;  // every truncation, at least
    EXPECT_GT(decoded, 0u) << name;
  }
}

TEST(ScenarioFuzz, MutatedScenarioDocumentsDecodeOrFailCleanly) {
  for (const char* name : {"xu3-mibench-te", "mobile3-edp"}) {
    const std::string text =
        json::dump(scenario_to_json(scenario::make_scenario(name)));
    const auto [rejected, decoded] =
        fuzz_decode(text, 0x5EEDF1A1, [](const std::string& mutated) {
          scenario_from_json(json::parse(mutated), "fuzz").validate();
        });
    EXPECT_GT(rejected, text.size()) << name;
    EXPECT_GT(decoded, 0u) << name;
  }
}

}  // namespace
}  // namespace parmis::serde
