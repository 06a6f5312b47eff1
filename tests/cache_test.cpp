// Tests for src/cache: content-addressed cell keys (canonical spec
// serialization), result round-trips, corruption handling, bypass, GC,
// and concurrent writers sharing one cache directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "cache/result_cache.hpp"
#include "common/canonical.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "exec/campaign.hpp"
#include "methods/registry.hpp"
#include "scenario/scenario.hpp"
#include "serde/plan.hpp"

namespace parmis::cache {
namespace {

/// Fresh unique directory under the test temp root.
std::string temp_cache_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "parmis_cache_" + tag + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  spec.benchmark_apps = {"qsort", "sha"};
  return spec;
}

exec::CampaignConfig small_campaign(ResultCache* cache) {
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-mibench-te"),
                      scenario::make_scenario("mobile3-edp")};
  for (auto& s : config.scenarios) {
    s.methods = {"parmis", "performance", "random"};
  }
  config.num_threads = 2;
  config.seeds_per_cell = 2;
  config.cache = cache;
  return config;
}

// ----------------------------------------------------------------- keys

TEST(CellKey, StableAcrossCallsAndLayoutIndependentFields) {
  const scenario::ScenarioSpec a = small_spec();
  scenario::ScenarioSpec b = small_spec();
  EXPECT_EQ(cell_key(a, "parmis", 1, 3), cell_key(b, "parmis", 1, 3));

  // Fields that cannot affect cell results must not affect the key:
  // the description and the order/content of the method *list* (the
  // cell's own method is keyed separately).
  b.description = "a completely different description";
  std::reverse(b.methods.begin(), b.methods.end());
  b.methods.push_back("random");
  // run_cell rebuilds initial_thetas from anchor_thetas + the keyed
  // anchor limit, so spec-level values must not invalidate the key.
  b.parmis.initial_thetas = {num::Vec{1.0, 2.0}};
  b.parmis.seed = 999;
  EXPECT_EQ(cell_key(a, "parmis", 1, 3), cell_key(b, "parmis", 1, 3));
}

TEST(CellKey, SensitiveToEveryCellInput) {
  const scenario::ScenarioSpec spec = small_spec();
  const CellKey base = cell_key(spec, "parmis", 1, 3);
  EXPECT_NE(base, cell_key(spec, "performance", 1, 3));  // method
  EXPECT_NE(base, cell_key(spec, "parmis", 2, 3));       // seed
  EXPECT_NE(base, cell_key(spec, "parmis", 1, 2));       // anchor limit

  scenario::ScenarioSpec changed = small_spec();
  changed.workload_seed += 1;
  EXPECT_NE(base, cell_key(changed, "parmis", 1, 3));

  changed = small_spec();
  changed.platform = "mobile3";
  EXPECT_NE(base, cell_key(changed, "parmis", 1, 3));

  changed = small_spec();
  changed.platform_config.sensor_noise_sd = 0.25;
  EXPECT_NE(base, cell_key(changed, "parmis", 1, 3));

  changed = small_spec();
  changed.parmis.max_iterations += 1;
  EXPECT_NE(base, cell_key(changed, "parmis", 1, 3));

  changed = small_spec();
  changed.objectives = {runtime::ObjectiveKind::ExecutionTime,
                        runtime::ObjectiveKind::PPW};
  EXPECT_NE(base, cell_key(changed, "parmis", 1, 3));
}

TEST(CellKey, MethodConfigBytesExtendButNeverMoveDefaultKeys) {
  const scenario::ScenarioSpec spec = small_spec();
  // "" (a defaulted method config) must reproduce the historical
  // 4-argument key bit for bit — existing cache dirs stay valid.
  EXPECT_EQ(cell_key(spec, "rl", 1, 3, ""), cell_key(spec, "rl", 1, 3));
  // Non-empty canonical config bytes move the key, and different bytes
  // move it differently.
  const CellKey base = cell_key(spec, "rl", 1, 3);
  const CellKey tuned = cell_key(spec, "rl", 1, 3, "rl.episodes=9\n");
  const CellKey tuned2 = cell_key(spec, "rl", 1, 3, "rl.episodes=10\n");
  EXPECT_NE(base, tuned);
  EXPECT_NE(tuned, tuned2);
}

TEST(CellKey, CanonicalSerializationIsNotLayoutDumping) {
  // Same spec serialized twice is byte-identical, and the serialization
  // embeds a version tag so schema changes invalidate cleanly.
  const std::string bytes = scenario::canonical_serialize(small_spec());
  EXPECT_EQ(bytes, scenario::canonical_serialize(small_spec()));
  EXPECT_NE(bytes.find("parmis-scenario-canonical v1"), std::string::npos);
  // Strings are length-prefixed: a name containing the tag separator
  // or newlines cannot confuse the encoding.
  scenario::ScenarioSpec tricky = small_spec();
  tricky.name = "evil\nname=7:with\ntags";
  EXPECT_NE(scenario::canonical_serialize(tricky), bytes);
}

TEST(CellKey, MethodMatrixKeysArePinned) {
  // One cell per method-matrix scenario, pinned when the entry format
  // moved to v3: the format version is not part of a key, so no key
  // (and no cache file name) may move with it.
  const exec::CampaignConfig config = serde::to_campaign_config(
      serde::load_plan(PARMIS_EXAMPLES_DIR "/plans/method_matrix.json"),
      serde::ScenarioCatalogue());
  ASSERT_EQ(config.scenarios.size(), 3u);
  struct Pin {
    std::size_t scenario;
    const char* method;
    std::uint64_t seed;
    const char* hex;
  };
  for (const Pin& pin :
       {Pin{0, "parmis", 1, "9f68a0cfc844d92469f141ad0927f1aa"},
        Pin{1, "rl", 2, "b5050e7d6b437be5d9fb26a3b6283216"},
        Pin{2, "il", 3, "fe496b394285f5a94e11d57e04d9f4af"}}) {
    const scenario::ScenarioSpec& spec = config.scenarios[pin.scenario];
    EXPECT_EQ(cell_key(spec, pin.method, pin.seed, config.anchor_limit,
                       methods::canonical_method_config(
                           pin.method, config.method_configs))
                  .hex(),
              pin.hex)
        << spec.name << "/" << pin.method << " seed " << pin.seed;
  }
}

/// A cell key as one hash128 over the whole key text: the form every
/// key had before keys were hashed from a per-scenario prefix.
CellKey one_shot_key(const std::string& canonical_spec,
                     const std::string& method, std::uint64_t seed,
                     std::size_t anchor_limit,
                     const std::string& method_config) {
  std::string bytes;
  canonical::put_u64(bytes, "cache_schema_version", kCacheSchemaVersion);
  canonical::put_str(bytes, "spec", canonical_spec);
  canonical::put_str(bytes, "method", method);
  canonical::put_u64(bytes, "seed", seed);
  canonical::put_u64(bytes, "anchor_limit", anchor_limit);
  if (!method_config.empty()) {
    canonical::put_str(bytes, "method_config", method_config);
  }
  return CellKey{hash128(bytes)};
}

TEST(CellKey, PrefixKeysEqualOneShotKeysForEveryShippedPlanCell) {
  std::size_t plans = 0, cells = 0, configured = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(PARMIS_EXAMPLES_DIR "/plans")) {
    if (file.path().extension() != ".json") continue;
    ++plans;
    serde::CampaignPlan plan = serde::load_plan(file.path().string());
    plan.shard.reset();  // every cell of the campaign, not one slice
    serde::ScenarioCatalogue catalogue;
    for (const serde::ScenarioRef& ref : plan.scenarios) {
      if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
    }
    const exec::CampaignConfig config =
        serde::to_campaign_config(plan, catalogue);
    const exec::CampaignRunner runner(config);
    const std::vector<CellKey>& keys = runner.cell_keys();
    std::size_t at = 0;
    for (const scenario::ScenarioSpec& spec : config.scenarios) {
      const std::string canonical = scenario::canonical_serialize(spec);
      for (const std::string& method : spec.methods) {
        const std::string method_config =
            methods::canonical_method_config(method, config.method_configs);
        if (!method_config.empty()) ++configured;
        for (std::size_t s = 0; s < config.seeds_per_cell; ++s, ++at) {
          const std::uint64_t seed = config.base_seed + s;
          const CellKey want = one_shot_key(canonical, method, seed,
                                            config.anchor_limit, method_config);
          ASSERT_LT(at, keys.size()) << file.path();
          EXPECT_EQ(keys[at], want) << file.path() << ": " << spec.name << "/"
                                    << method << " seed " << seed;
          EXPECT_EQ(cell_key(spec, method, seed, config.anchor_limit,
                             method_config),
                    want);
          EXPECT_EQ(cell_key(cell_key_prefix(canonical), method, seed,
                             config.anchor_limit, method_config),
                    want);
          ++cells;
        }
      }
    }
    EXPECT_EQ(at, keys.size()) << file.path();
  }
  EXPECT_GE(plans, 6u);
  EXPECT_GT(cells, 0u);
  EXPECT_GT(configured, 0u);  // method_matrix.json tunes four methods
}

TEST(CellKey, SplitHashingEqualsOneShotHashing) {
  // hash128's state resumes anywhere: every split of a buffer into a
  // prefix and a suffix gives the one-shot fingerprint.
  std::string text;
  for (int i = 0; i < 97; ++i) text += static_cast<char>(i * 37 + 11);
  const Hash128 whole = hash128(text);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    Hash128State state;
    state.update(std::string_view(text).substr(0, cut));
    const Hash128State saved = state;
    EXPECT_EQ(state.update(std::string_view(text).substr(cut)).finish(), whole)
        << "cut at " << cut;
    EXPECT_EQ(saved.finish(), hash128(text.substr(0, cut)));
  }
  EXPECT_EQ(Hash128State().finish(), hash128(""));
}

// ----------------------------------------------------------- round trips

TEST(ResultCache, RoundTripPreservesEveryFieldBitwise) {
  ResultCache cache(temp_cache_dir("roundtrip"));
  const scenario::ScenarioSpec spec = small_spec();
  const CellKey key = cell_key(spec, "parmis", 5, 2);

  const exec::CellResult fresh =
      exec::CampaignRunner::run_cell(spec, "parmis", 5, 2);
  ASSERT_TRUE(fresh.error.empty()) << fresh.error;
  ASSERT_EQ(fresh.pareto_thetas.size(), fresh.front.size());
  cache.store(key, fresh);

  const auto cached = cache.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->scenario, fresh.scenario);
  EXPECT_EQ(cached->platform, fresh.platform);
  EXPECT_EQ(cached->method, fresh.method);
  EXPECT_EQ(cached->seed, fresh.seed);
  EXPECT_EQ(cached->num_apps, fresh.num_apps);
  EXPECT_EQ(cached->evaluations, fresh.evaluations);
  EXPECT_EQ(cached->objective_names, fresh.objective_names);
  ASSERT_EQ(cached->front.size(), fresh.front.size());
  for (std::size_t p = 0; p < fresh.front.size(); ++p) {
    ASSERT_EQ(cached->front[p].size(), fresh.front[p].size());
    for (std::size_t j = 0; j < fresh.front[p].size(); ++j) {
      EXPECT_EQ(cached->front[p][j], fresh.front[p][j]);
    }
  }
  ASSERT_EQ(cached->pareto_thetas.size(), fresh.pareto_thetas.size());
  for (std::size_t p = 0; p < fresh.pareto_thetas.size(); ++p) {
    ASSERT_EQ(cached->pareto_thetas[p].size(),
              fresh.pareto_thetas[p].size());
    for (std::size_t j = 0; j < fresh.pareto_thetas[p].size(); ++j) {
      EXPECT_EQ(cached->pareto_thetas[p][j], fresh.pareto_thetas[p][j]);
    }
  }
  ASSERT_EQ(cached->best_raw.size(), fresh.best_raw.size());
  for (std::size_t j = 0; j < fresh.best_raw.size(); ++j) {
    EXPECT_EQ(cached->best_raw[j], fresh.best_raw[j]);
  }
  EXPECT_EQ(cached->wall_s, fresh.wall_s);
  EXPECT_EQ(cached->decision_overhead_us, fresh.decision_overhead_us);
  EXPECT_TRUE(cached->error.empty());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
}

TEST(ResultCache, SpecialDoublesSurviveTheTrip) {
  ResultCache cache(temp_cache_dir("specials"));
  exec::CellResult cell;
  cell.scenario = "synthetic";
  cell.method = "unit";
  cell.front = {{0.0, -0.0},
                {std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::denorm_min()},
                {1e-300, -1.7976931348623157e308}};
  cell.pareto_thetas = {{-0.0, 5e-324},
                        {std::numeric_limits<double>::quiet_NaN()},
                        {}};  // ragged + empty thetas are legal bytes
  cell.best_raw = {0.1 + 0.2};  // famously not 0.3
  const CellKey key{hash128("specials")};
  cache.store(key, cell);
  const auto back = cache.lookup(key);
  ASSERT_TRUE(back.has_value());
  for (std::size_t p = 0; p < cell.front.size(); ++p) {
    for (std::size_t j = 0; j < cell.front[p].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back->front[p][j]),
                std::bit_cast<std::uint64_t>(cell.front[p][j]));
    }
  }
  ASSERT_EQ(back->pareto_thetas.size(), cell.pareto_thetas.size());
  for (std::size_t p = 0; p < cell.pareto_thetas.size(); ++p) {
    ASSERT_EQ(back->pareto_thetas[p].size(), cell.pareto_thetas[p].size());
    for (std::size_t j = 0; j < cell.pareto_thetas[p].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back->pareto_thetas[p][j]),
                std::bit_cast<std::uint64_t>(cell.pareto_thetas[p][j]));
    }
  }
  EXPECT_EQ(back->best_raw[0], 0.1 + 0.2);
}

TEST(ResultCache, ExtremeIntegerFieldsRoundTrip) {
  // The decimal parser must accept everything the serializer writes,
  // including the top decade of uint64 (a perfectly legal seed).
  ResultCache cache(temp_cache_dir("extremes"));
  exec::CellResult cell;
  cell.scenario = "extremes";
  cell.method = "unit";
  cell.seed = UINT64_MAX;
  cell.evaluations = UINT64_MAX - 1;
  cell.front = {{1.0}};
  const CellKey key{hash128("extremes")};
  cache.store(key, cell);
  const auto back = cache.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seed, UINT64_MAX);
  EXPECT_EQ(back->evaluations, UINT64_MAX - 1);
  EXPECT_EQ(cache.stats().corrupt, 0u);
}

TEST(ResultCache, FailedCellsAreNeverStored) {
  ResultCache cache(temp_cache_dir("failed"));
  exec::CellResult cell;
  cell.error = "simulated failure";
  const CellKey key{hash128("failed-cell")};
  cache.store(key, cell);
  EXPECT_FALSE(cache.contains(key));
  EXPECT_EQ(cache.num_entries(), 0u);
}

// ----------------------------------------------------- campaign wiring

TEST(ResultCache, SecondCampaignRunHitsEverythingWithIdenticalDigest) {
  ResultCache cache(temp_cache_dir("campaign"));

  exec::CampaignReport first =
      exec::CampaignRunner(small_campaign(&cache)).run();
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, first.cells.size());
  for (const auto& cell : first.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_FALSE(cell.from_cache);
  }

  exec::CampaignReport second =
      exec::CampaignRunner(small_campaign(&cache)).run();
  EXPECT_EQ(second.cache_hits, second.cells.size());
  EXPECT_EQ(second.cache_misses, 0u);
  for (const auto& cell : second.cells) EXPECT_TRUE(cell.from_cache);

  // The acceptance property: a replayed campaign is bit-identical,
  // including the serially recomputed shared-reference PHV.
  EXPECT_EQ(first.objectives_digest(), second.objectives_digest());
  ASSERT_EQ(first.cells.size(), second.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    EXPECT_EQ(first.cells[i].phv, second.cells[i].phv);
  }
}

TEST(ResultCache, ResumeExecutesOnlyMissingCells) {
  ResultCache cache(temp_cache_dir("resume"));
  exec::CampaignConfig config = small_campaign(&cache);
  exec::CampaignRunner runner(config);
  auto [cached_before, total] = runner.probe_cache();
  EXPECT_EQ(cached_before, 0u);
  EXPECT_EQ(total, 2u * 3u * 2u);
  runner.run();

  // Invalidate a single cell by deleting its entry: a resumed run must
  // re-execute exactly that cell.
  const CellKey victim =
      cell_key(config.scenarios[0], "performance", config.base_seed,
               config.anchor_limit);
  ASSERT_TRUE(cache.contains(victim));
  ASSERT_TRUE(remove_file(cache.entry_path(victim)));

  auto [cached_after, total_after] = runner.probe_cache();
  EXPECT_EQ(total_after, total);
  EXPECT_EQ(cached_after, total - 1);
  const exec::CampaignReport resumed = runner.run();
  EXPECT_EQ(resumed.cache_hits, total - 1);
  EXPECT_EQ(resumed.cache_misses, 1u);
}

TEST(ResultCache, NullCacheBypassExecutesEverything) {
  // --no-cache maps to a null cache pointer: every cell executes and
  // no cache counters move.
  exec::CampaignConfig config = small_campaign(nullptr);
  config.scenarios.resize(1);
  const exec::CampaignReport report = exec::CampaignRunner(config).run();
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, 0u);
  for (const auto& cell : report.cells) EXPECT_FALSE(cell.from_cache);
}

// ------------------------------------------------------------ corruption

TEST(ResultCache, CorruptedEntryIsDetectedAndHealsOnRestore) {
  ResultCache cache(temp_cache_dir("corrupt"));
  const scenario::ScenarioSpec spec = small_spec();
  const CellKey key = cell_key(spec, "performance", 1, 3);
  cache.store(key, exec::CampaignRunner::run_cell(spec, "performance", 1, 3));
  ASSERT_TRUE(cache.contains(key));

  // Flip one byte in the middle of the payload.
  const std::string path = cache.entry_path(key);
  auto contents = read_file(path);
  ASSERT_TRUE(contents.has_value());
  (*contents)[contents->size() / 2] ^= 0x20;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << *contents;
  }

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  // The corrupt entry is NOT unlinked by lookup (a stale reader must
  // never delete a peer's fresh rewrite); the re-run cell's store()
  // atomically overwrites it, which heals the slot.
  EXPECT_TRUE(std::filesystem::exists(path));
  cache.store(key, exec::CampaignRunner::run_cell(spec, "performance", 1, 3));
  EXPECT_TRUE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);  // no further corruption seen
}

TEST(ResultCache, TruncatedAndGarbageEntriesAreMisses) {
  ResultCache cache(temp_cache_dir("garbage"));
  const CellKey key{hash128("garbage-entry")};
  exec::CellResult cell;
  cell.scenario = "s";
  cell.front = {{1.0, 2.0}};
  cache.store(key, cell);

  const std::string path = cache.entry_path(key);
  auto contents = read_file(path);
  ASSERT_TRUE(contents.has_value());
  {
    // Truncate mid-payload: digest check must reject it.
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << contents->substr(0, contents->size() / 2);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());

  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "not a cache entry at all";
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 2u);
}

TEST(ResultCache, EverySingleByteChangeOfAPayloadIsRejected) {
  // A real PaRMIS entry: xu3-mibench-te's front policies are 445-d
  // thetas, ~26 KB of mostly doubles.  The word digest changes whenever
  // one word of the payload changes, so every one-byte change of it,
  // through every xor value across the positions, reads as corrupt.
  const scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  const CellKey key = cell_key(spec, "parmis", 1, 3);
  const exec::CellResult cell =
      exec::CampaignRunner::run_cell(spec, "parmis", 1, 3);
  ASSERT_TRUE(cell.error.empty()) << cell.error;
  ASSERT_FALSE(cell.pareto_thetas.empty());
  ASSERT_EQ(cell.pareto_thetas.front().size(), 445u);
  std::string entry = serialize_entry(key, cell);
  ASSERT_TRUE(parse_entry(entry, key).has_value());
  const std::size_t payload_at = entry.find('\n', entry.find("digest=")) + 1;
  std::size_t accepted = 0;
  for (std::size_t at = payload_at; at < entry.size(); ++at) {
    const char flip = static_cast<char>(1 + at % 255);
    entry[at] ^= flip;
    accepted += parse_entry(entry, key).has_value() ? 1 : 0;
    entry[at] ^= flip;
  }
  // And all 255 changes of each byte of the first words.
  for (std::size_t at = payload_at; at < payload_at + 24; ++at) {
    for (int flip = 1; flip < 256; ++flip) {
      entry[at] ^= static_cast<char>(flip);
      accepted += parse_entry(entry, key).has_value() ? 1 : 0;
      entry[at] ^= static_cast<char>(flip);
    }
  }
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(parse_entry(entry, key).has_value());
}

/// The bytes a format-v3 writer stored for `cell` under `key`: the same
/// fields as today's entry, but one `f=<16 hex>` field per double.
std::string v3_entry(const CellKey& key, const exec::CellResult& cell) {
  using canonical::put_f64;
  using canonical::put_str;
  using canonical::put_u64;
  std::string p;
  put_str(p, "key", key.hex());
  put_str(p, "scenario", cell.scenario);
  put_str(p, "platform", cell.platform);
  put_str(p, "method", cell.method);
  put_u64(p, "seed", cell.seed);
  put_u64(p, "apps", cell.num_apps);
  put_u64(p, "evaluations", cell.evaluations);
  put_u64(p, "objective_names", cell.objective_names.size());
  for (const auto& name : cell.objective_names) put_str(p, "name", name);
  put_u64(p, "front", cell.front.size());
  for (const auto& point : cell.front) {
    put_u64(p, "point", point.size());
    for (double v : point) put_f64(p, "f", v);
  }
  put_u64(p, "pareto_thetas", cell.pareto_thetas.size());
  for (const auto& theta : cell.pareto_thetas) {
    put_u64(p, "theta", theta.size());
    for (double v : theta) put_f64(p, "f", v);
  }
  put_u64(p, "best_raw", cell.best_raw.size());
  for (double v : cell.best_raw) put_f64(p, "f", v);
  put_f64(p, "wall_s", cell.wall_s);
  put_f64(p, "overhead_us", cell.decision_overhead_us);
  put_str(p, "error", cell.error);
  return "parmis-cell-cache v3\ndigest=" + hex64(fnv1a64_words(p)) + "\n" + p;
}

TEST(ResultCache, AV3EntryIsAStaleMissRewrittenAsV4) {
  // A format-v3 entry under today's key, with a valid v3 digest: the
  // v4 reader counts it corrupt, the cell re-runs, and the store
  // renames a v4 entry over the same file.
  ResultCache cache(temp_cache_dir("v3"));
  const scenario::ScenarioSpec spec = small_spec();
  const CellKey key = cell_key(spec, "performance", 1, 3);
  const exec::CellResult cell =
      exec::CampaignRunner::run_cell(spec, "performance", 1, 3);
  ASSERT_TRUE(cell.error.empty()) << cell.error;
  ASSERT_FALSE(cell.front.empty());
  const std::string v4 = serialize_entry(key, cell);
  ASSERT_EQ(v4.rfind("parmis-cell-cache v4\n", 0), 0u);
  const std::string v3 = v3_entry(key, cell);
  ASSERT_GT(v3.size(), v4.size());
  EXPECT_FALSE(parse_entry(v3, key).has_value());
  atomic_write_file(cache.entry_path(key), v3);

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().corrupt, 1u);
  cache.store(key, cell);
  EXPECT_EQ(read_file(cache.entry_path(key)).value_or(""), v4);
  const std::optional<exec::CellResult> back = cache.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_entry(key, *back), v4);
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

/// `payload` behind today's magic line and a valid digest, so the
/// decoder itself must judge it.
std::string stamped_entry(const std::string& payload) {
  return "parmis-cell-cache v4\ndigest=" + hex64(fnv1a64_words(payload)) +
         "\n" + payload;
}

TEST(ResultCache, RawBlocksRoundTripEveryBitPattern) {
  // NaNs with payloads (quiet and signalling, either sign), signed
  // zeros, denormals, infinities and the extremes, in every array
  // field: an entry stores bit patterns, not values.
  const auto bits = [](std::uint64_t b) { return std::bit_cast<double>(b); };
  const num::Vec specials = {
      bits(0x7FF8000000000001ULL),  // quiet NaN, payload 1
      bits(0xFFF8DEADBEEF0000ULL),  // negative quiet NaN with a payload
      bits(0x7FF0000000000001ULL),  // signalling NaN
      bits(0xFFF7FFFFFFFFFFFFULL),  // negative signalling NaN
      0.0, -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      bits(0x000FFFFFFFFFFFFFULL),  // largest denormal
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(), 0.1 + 0.2};
  exec::CellResult cell;
  cell.scenario = "specials";
  cell.method = "unit";
  cell.front = {specials, {}, {specials[3]}};
  cell.pareto_thetas = {{}, specials};
  cell.best_raw = specials;
  cell.wall_s = bits(0x7FF8000000000ABCULL);
  cell.decision_overhead_us = -0.0;
  const CellKey key{hash128("raw-blocks")};
  const std::string entry = serialize_entry(key, cell);
  const std::optional<exec::CellResult> back = parse_entry(entry, key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(serialize_entry(key, *back), entry);
  const auto same = [](const num::Vec& a, const num::Vec& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a[i]) !=
          std::bit_cast<std::uint64_t>(b[i])) {
        return false;
      }
    }
    return true;
  };
  ASSERT_EQ(back->front.size(), cell.front.size());
  for (std::size_t p = 0; p < cell.front.size(); ++p) {
    EXPECT_TRUE(same(back->front[p], cell.front[p])) << "point " << p;
  }
  ASSERT_EQ(back->pareto_thetas.size(), cell.pareto_thetas.size());
  for (std::size_t p = 0; p < cell.pareto_thetas.size(); ++p) {
    EXPECT_TRUE(same(back->pareto_thetas[p], cell.pareto_thetas[p]));
  }
  EXPECT_TRUE(same(back->best_raw, cell.best_raw));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back->wall_s),
            std::bit_cast<std::uint64_t>(cell.wall_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back->decision_overhead_us),
            std::bit_cast<std::uint64_t>(-0.0));
  // The block holds the bit patterns little-endian, on any host.
  const std::size_t block = entry.find("best_raw=15:") + 12;
  ASSERT_NE(block, std::string::npos + 12);
  EXPECT_EQ(entry.substr(block, 8), std::string("\x01\0\0\0\0\0\xF8\x7F", 8));
}

TEST(ResultCache, ShortBlocksAndOverflowingCountsAreCleanMisses) {
  const CellKey key{hash128("blocks")};
  exec::CellResult cell;
  cell.scenario = "s";
  cell.method = "m";
  cell.front = {{1.0, 2.0}};
  cell.best_raw = {1.0, 2.0};
  const std::string entry = serialize_entry(key, cell);
  const std::string payload =
      entry.substr(entry.find('\n', entry.find("digest=")) + 1);
  ASSERT_EQ(stamped_entry(payload), entry);
  const std::size_t count_at = payload.find("point=2:") + 6;
  ASSERT_NE(count_at, std::string::npos + 6);
  const auto with_count = [&](const std::string& count) {
    std::string p = payload;
    p.replace(count_at, 1, count);
    return stamped_entry(p);
  };
  ASSERT_TRUE(parse_entry(with_count("2"), key).has_value());
  // One double more than the block holds, and none at all.
  EXPECT_FALSE(parse_entry(with_count("3"), key).has_value());
  EXPECT_FALSE(parse_entry(with_count("1"), key).has_value());
  // Counts whose byte size wraps a 64-bit size_t to a small value:
  // 2^61·8 = 2^64 ≡ 0, 2^61+2 gives 16 — the exact size of the block —
  // and the largest count there is.
  for (const char* count : {"2305843009213693952", "2305843009213693954",
                            "18446744073709551615"}) {
    EXPECT_FALSE(parse_entry(with_count(count), key).has_value()) << count;
  }
  // A count past UINT64_MAX is no number at all.
  EXPECT_FALSE(
      parse_entry(with_count("18446744073709551616"), key).has_value());
  // A block cut short at every byte, re-stamped.
  const std::size_t block_at = count_at + 2;
  for (std::size_t n = block_at; n < block_at + 17; ++n) {
    std::string p = payload;
    p.erase(n, 1);
    EXPECT_FALSE(parse_entry(stamped_entry(p), key).has_value()) << n;
  }
  // And through the cache: a stored entry with a short block is a
  // counted corrupt miss.
  ResultCache cache(temp_cache_dir("blocks"));
  atomic_write_file(cache.entry_path(key), with_count("3"));
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST(ResultCache, EveryMutatedEntryIsRejectedOrReencodesToItsBytes) {
  // Mutation oracle for the entry decoder: each truncation of a real
  // entry's payload and 400 seeded byte flips, each re-stamped with a
  // valid digest so the decoder itself must judge it.  An entry it
  // accepts must be exactly what serialize_entry writes for the cell it
  // decoded to — no lenient parse of a non-canonical field.
  // An RL cell: a front point and its policy theta in ~9 KB, so every
  // truncation stays affordable (each one is digested whole).
  const scenario::ScenarioSpec spec =
      scenario::make_scenario("xu3-synthetic-te");
  const CellKey key = cell_key(spec, "rl", 1, 3);
  const exec::CellResult cell =
      exec::CampaignRunner::run_cell(spec, "rl", 1, 3);
  ASSERT_TRUE(cell.error.empty()) << cell.error;
  ASSERT_FALSE(cell.pareto_thetas.empty());
  const std::string entry = serialize_entry(key, cell);
  ASSERT_EQ(entry.rfind("parmis-cell-cache v4\n", 0), 0u);
  const std::size_t digest_at = entry.find("digest=");
  ASSERT_NE(digest_at, std::string::npos);
  const std::string magic = entry.substr(0, digest_at);
  const std::string payload = entry.substr(entry.find('\n', digest_at) + 1);
  const auto stamped = [&](const std::string& p) {
    return magic + "digest=" + hex64(fnv1a64_words(p)) + "\n" + p;
  };
  ASSERT_EQ(stamped(payload), entry);
  ASSERT_TRUE(parse_entry(entry, key).has_value());

  std::size_t accepted = 0, rejected = 0;
  const auto judge = [&](const std::string& mutated, const std::string& what) {
    const std::string bytes = stamped(mutated);
    const std::optional<exec::CellResult> decoded = parse_entry(bytes, key);
    if (!decoded.has_value()) {
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_EQ(serialize_entry(key, *decoded), bytes) << what;
  };
  for (std::size_t n = 0; n < payload.size(); ++n) {
    judge(payload.substr(0, n), "truncated to " + std::to_string(n));
  }
  std::mt19937_64 rng(20211);
  for (int i = 0; i < 400; ++i) {
    std::string mutated = payload;
    const std::size_t at = rng() % mutated.size();
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
    judge(mutated, "byte " + std::to_string(at) + " flipped");
  }
  // And the flip a reader most easily forgives: a leading zero on every
  // field value that starts with a digit.
  for (std::size_t at = 1; at + 1 < payload.size(); ++at) {
    if (payload[at - 1] != '=' || payload[at] < '1' || payload[at] > '9') {
      continue;
    }
    std::string mutated = payload;
    mutated[at] = '0';
    judge(mutated, "leading digit at " + std::to_string(at) + " zeroed");
  }
  // Truncations all fail; flips inside strings and doubles decode.
  EXPECT_GE(rejected, payload.size());
  EXPECT_GT(accepted, 0u);
}

// -------------------------------------------------------------------- gc

TEST(ResultCache, GcRemovesOldestEntriesDownToBudget) {
  ResultCache cache(temp_cache_dir("gc"));
  exec::CellResult cell;
  cell.scenario = "s";
  cell.front = {{1.0, 2.0}};
  for (int i = 0; i < 8; ++i) {
    cache.store(CellKey{hash128("gc-" + std::to_string(i))}, cell);
  }
  ASSERT_EQ(cache.num_entries(), 8u);
  const std::uintmax_t per_entry = cache.total_bytes() / 8;
  const std::size_t removed = cache.gc(3 * per_entry);
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(cache.num_entries(), 3u);
  EXPECT_LE(cache.total_bytes(), 3 * per_entry);
  EXPECT_EQ(cache.gc(3 * per_entry), 0u);  // already under budget
}

TEST(ResultCache, GcSparesEntriesInADirectoryNamedLikeATempFile) {
  // The stale-temp sweep must match filenames, not the directory path:
  // a cache living under e.g. /scratch/job.tmp.42/ is not a leftover.
  const std::string dir = temp_cache_dir("gcpath") + "/job.tmp.42/cache";
  ResultCache cache(dir);
  exec::CellResult cell;
  cell.scenario = "s";
  cell.front = {{1.0, 2.0}};
  cache.store(CellKey{hash128("gcpath-entry")}, cell);
  ASSERT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(cache.gc(1 << 20), 0u);  // generous budget: nothing to prune
  EXPECT_EQ(cache.num_entries(), 1u);
}

// ----------------------------------------------------------- concurrency

TEST(ResultCache, ConcurrentRunnersOnOneDirectoryAgree) {
  const std::string dir = temp_cache_dir("concurrent");
  ResultCache cache_a(dir);
  ResultCache cache_b(dir);

  exec::CampaignReport report_a, report_b;
  std::thread runner_a([&] {
    report_a = exec::CampaignRunner(small_campaign(&cache_a)).run();
  });
  std::thread runner_b([&] {
    report_b = exec::CampaignRunner(small_campaign(&cache_b)).run();
  });
  runner_a.join();
  runner_b.join();

  // Both runs finish with the same bit-exact results no matter how
  // their lookups and stores interleaved on the shared directory.
  EXPECT_EQ(report_a.objectives_digest(), report_b.objectives_digest());
  for (const auto& cell : report_a.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
  }
  for (const auto& cell : report_b.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.error;
  }
  // No torn entries remain: a third pass is served fully from cache.
  ResultCache cache_c(dir);
  const exec::CampaignReport replay =
      exec::CampaignRunner(small_campaign(&cache_c)).run();
  EXPECT_EQ(replay.cache_hits, replay.cells.size());
  EXPECT_EQ(replay.objectives_digest(), report_a.objectives_digest());
}

}  // namespace
}  // namespace parmis::cache
