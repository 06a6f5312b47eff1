// Tests for the report analytics subsystem (src/report): versioned
// report serde round trips, shard merging with global-reference PHV,
// tiling validation, cross-method analytics, and the hardened CSV
// round trip.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "exec/campaign.hpp"
#include "methods/builtin.hpp"
#include "report/analytics.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "report_oracle.hpp"
#include "scenario/scenario.hpp"

namespace parmis::report {
namespace {

std::string temp_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "parmis_report_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".json";
}

/// A hand-built report exercising every field: hostile doubles
/// (infinities, NaN, denormal), a seed above 2^53, an error cell, a
/// cached cell, and strings that stress JSON escaping.
exec::CampaignReport synthetic_report() {
  exec::CampaignReport report;
  report.num_threads = 4;
  report.wall_s = 1.25;
  report.cache_hits = 3;
  report.cache_misses = 1;
  report.shard = exec::ShardSpec{0, 1};
  report.campaign_hash = 0xDEADBEEF12345678ULL;

  exec::CellResult a;
  a.scenario = "syn,\"quoted\"\nscenario";
  a.platform = "exynos5422";
  a.method = "parmis";
  a.seed = (1ULL << 53) + 12345;  // not exactly representable as double
  a.objective_names = {"time", "energy"};
  a.num_apps = 2;
  a.evaluations = 7;
  a.front = {{1.0, 4.0}, {2.0, 3.0}};
  a.pareto_thetas = {{0.25, -0.5, 1e300}, {5e-324, 0.0, -0.0}};
  a.best_raw = {1.0, 3.0};
  a.phv = 6.5;
  a.wall_s = 0.5;
  a.decision_overhead_us = 1.5;

  exec::CellResult b = a;
  b.method = "powersave";
  b.seed = 2;
  b.front = {{std::numeric_limits<double>::infinity(),
              -std::numeric_limits<double>::infinity()},
             {5e-324, std::numeric_limits<double>::quiet_NaN()}};
  b.best_raw = {5e-324, -0.0};
  b.from_cache = true;

  exec::CellResult c = a;
  c.method = "il";
  c.seed = 3;
  c.front.clear();
  c.pareto_thetas.clear();
  c.best_raw.clear();
  c.phv = 0.0;
  c.error = "scenario \"x\": method il: decision space too large\nline2";

  report.cells = {a, b, c};
  report.total_cells = report.cells.size();
  return report;
}

void expect_cells_equal(const exec::CellResult& a,
                        const exec::CellResult& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.platform, b.platform);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.objective_names, b.objective_names);
  EXPECT_EQ(a.num_apps, b.num_apps);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.from_cache, b.from_cache);
  // Bit-level comparison so -0.0 vs 0.0 and NaN payloads count.
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t p = 0; p < a.front.size(); ++p) {
    ASSERT_EQ(a.front[p].size(), b.front[p].size());
    for (std::size_t j = 0; j < a.front[p].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.front[p][j]),
                std::bit_cast<std::uint64_t>(b.front[p][j]));
    }
  }
  ASSERT_EQ(a.pareto_thetas.size(), b.pareto_thetas.size());
  for (std::size_t p = 0; p < a.pareto_thetas.size(); ++p) {
    ASSERT_EQ(a.pareto_thetas[p].size(), b.pareto_thetas[p].size());
    for (std::size_t j = 0; j < a.pareto_thetas[p].size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.pareto_thetas[p][j]),
                std::bit_cast<std::uint64_t>(b.pareto_thetas[p][j]));
    }
  }
  ASSERT_EQ(a.best_raw.size(), b.best_raw.size());
  for (std::size_t j = 0; j < a.best_raw.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_raw[j]),
              std::bit_cast<std::uint64_t>(b.best_raw[j]));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.phv),
            std::bit_cast<std::uint64_t>(b.phv));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wall_s),
            std::bit_cast<std::uint64_t>(b.wall_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.decision_overhead_us),
            std::bit_cast<std::uint64_t>(b.decision_overhead_us));
}

void expect_reports_equal(const exec::CampaignReport& a,
                          const exec::CampaignReport& b) {
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wall_s),
            std::bit_cast<std::uint64_t>(b.wall_s));
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.shard.index, b.shard.index);
  EXPECT_EQ(a.shard.count, b.shard.count);
  EXPECT_EQ(a.total_cells, b.total_cells);
  EXPECT_EQ(a.campaign_hash, b.campaign_hash);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.objectives_digest(), b.objectives_digest());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_cells_equal(a.cells[i], b.cells[i]);
  }
}

// ------------------------------------------------------------- serde

TEST(ReportSerde, RoundTripReproducesEveryFieldBitForBit) {
  const exec::CampaignReport report = synthetic_report();
  const exec::CampaignReport back =
      parse_report(json::dump(report_to_json(report)), "test");
  expect_reports_equal(report, back);
}

TEST(ReportSerde, SaveLoadThroughDiskAndLoadHook) {
  const exec::CampaignReport report = synthetic_report();
  const std::string path = temp_path("roundtrip");
  save_report(path, report);
  expect_reports_equal(report, load_report(path));
}

TEST(ReportSerde, WriteJsonIsTheSerdeFormat) {
  const exec::CampaignReport report = synthetic_report();
  std::ostringstream os;
  report.write_json(os);
  const exec::CampaignReport back =
      parse_report(os.str(), "test");
  expect_reports_equal(report, back);
}

TEST(ReportSerde, StreamingWriterMatchesDocumentDumpByteForByte) {
  // write_report splices cells into the document one at a time; its
  // bytes must be indistinguishable from materializing the whole
  // value tree (also checked for the empty-cells edge).
  exec::CampaignReport report = synthetic_report();
  std::ostringstream streamed;
  write_report(streamed, report);
  EXPECT_EQ(streamed.str(), json::dump(report_to_json(report)));

  report.cells.clear();
  report.total_cells = 0;
  std::ostringstream empty;
  write_report(empty, report);
  EXPECT_EQ(empty.str(), json::dump(report_to_json(report)));
}

TEST(ReportSerde, TamperedCellFieldFailsTheDigestCheck) {
  const std::string text = json::dump(report_to_json(synthetic_report()));
  // Flip one digest-relevant field without breaking the JSON shape.
  std::string tampered = text;
  const std::size_t pos = tampered.find("\"evaluations\": 7");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 16, "\"evaluations\": 8");
  EXPECT_THROW(parse_report(tampered, "test"), Error);
}

TEST(ReportSerde, RejectsWrongSchemaUnknownKeysAndBadSlices) {
  json::Value doc = report_to_json(synthetic_report());
  doc.set("schema", json::Value::string("parmis-report-v999"));
  EXPECT_THROW(parse_report(json::dump(doc), "test"), Error);

  json::Value doc2 = report_to_json(synthetic_report());
  doc2.set("surprise", json::Value::boolean(true));
  EXPECT_THROW(parse_report(json::dump(doc2), "test"), Error);

  // A report claiming more pre-slice cells than its shard slice holds.
  json::Value doc3 = report_to_json(synthetic_report());
  doc3.set("total_cells", json::Value::number(7));
  EXPECT_THROW(parse_report(json::dump(doc3), "test"), Error);
}

TEST(ReportSerde, V1SchemaStillLoads) {
  // Pre-theta archives must stay readable: a v1 document is exactly a
  // v2 document with no pareto_thetas blocks and the old schema tag.
  exec::CampaignReport report = synthetic_report();
  for (auto& cell : report.cells) cell.pareto_thetas.clear();
  json::Value doc = report_to_json(report);
  doc.set("schema", json::Value::string(kReportSchemaV1));
  expect_reports_equal(report, parse_report(json::dump(doc), "test"));
}

TEST(ReportSerde, ThetasAreDigestNeutralButAlignmentChecked) {
  // The digest pins objective bit patterns only, so attaching thetas
  // must not shift it — every historical golden pin survives v2.
  exec::CampaignReport with = synthetic_report();
  exec::CampaignReport without = synthetic_report();
  for (auto& cell : without.cells) cell.pareto_thetas.clear();
  EXPECT_EQ(with.objectives_digest(), without.objectives_digest());

  // A theta list that does not align one-to-one with the front is
  // rejected at decode (a wrong pairing would deploy the wrong policy).
  exec::CampaignReport bad = synthetic_report();
  bad.cells[0].pareto_thetas = {{1.0}};  // front has two members
  EXPECT_THROW(parse_report(json::dump(report_to_json(bad)), "test"),
               Error);
}

TEST(ReportSerde, ParseReportAgreesWithTheTreeDecoder) {
  // Every field kind (hostile doubles, a u64 above 2^53, escapes, an
  // error cell), in the emitted layout, in compact form, with members
  // reordered and with escaped keys, and every truncation of it.
  const json::Value doc = report_to_json(synthetic_report());
  const std::string text = json::dump(doc);
  EXPECT_TRUE(oracle::expect_decoders_agree(text));
  EXPECT_TRUE(oracle::expect_decoders_agree(json::dump_compact(doc)));
  json::Value reordered = json::Value::object();
  const auto& members = doc.members();
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    reordered.set(it->first, it->second);
  }
  EXPECT_TRUE(oracle::expect_decoders_agree(json::dump(reordered)));
  std::string escaped = text;
  const std::size_t key = escaped.find("\"scenario\"");
  ASSERT_NE(key, std::string::npos);
  escaped.replace(key, 10, "\"sc\\u0065nario\"");
  EXPECT_TRUE(oracle::expect_decoders_agree(escaped));
  for (std::size_t n = 0; n + 1 < text.size(); ++n) {  // all but the '\n'
    EXPECT_FALSE(oracle::expect_decoders_agree(text.substr(0, n)));
  }
}

TEST(ReportSerde, ErrorsNameTheFileTheCellAndTheKey) {
  const std::string text = json::dump(report_to_json(synthetic_report()));
  const auto error = [](const std::string& doc) {
    try {
      (void)parse_report(doc, "shard.json");
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };
  std::string bad_type = text;
  const std::size_t seed = bad_type.find("\"seed\": 2");
  ASSERT_NE(seed, std::string::npos);
  bad_type.replace(seed, 9, "\"seed\": true");
  EXPECT_NE(error(bad_type).find(
                "shard.json: cell #1: key \"seed\": expected unsigned "
                "integer, got bool"),
            std::string::npos)
      << error(bad_type);
  const std::string truncated = text.substr(0, text.find("6.5") + 2);
  EXPECT_NE(error(truncated).find("shard.json: json: line "),
            std::string::npos)
      << error(truncated);
  std::string repeated = text;
  repeated.insert(repeated.find("\"method\""), "\"method\": \"x\", ");
  EXPECT_NE(error(repeated).find("duplicate object key \"method\""),
            std::string::npos)
      << error(repeated);
}

// ------------------------------------------------------------- merge

exec::CampaignConfig governor_campaign(std::size_t seeds) {
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  // Governors only: cells are milliseconds, and the four policies give
  // well-separated fronts so PHV ordering is meaningful.
  config.scenarios[0].methods = {"performance", "powersave", "ondemand",
                                 "random"};
  config.seeds_per_cell = seeds;
  config.num_threads = 2;
  return config;
}

TEST(ReportMerge, MergeOfOneCompleteReportIsAnIdentity) {
  const exec::CampaignReport report =
      exec::CampaignRunner(governor_campaign(2)).run();
  const exec::CampaignReport merged = merge({report});
  expect_reports_equal(report, merged);
}

TEST(ReportMerge, ShardedThenMergedEqualsUnshardedIncludingPhv) {
  const exec::CampaignReport full =
      exec::CampaignRunner(governor_campaign(2)).run();

  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    exec::CampaignConfig config = governor_campaign(2);
    config.shard = exec::ShardSpec{i, 3};
    shards.push_back(exec::CampaignRunner(config).run());
  }
  ASSERT_EQ(shards[0].campaign_hash, full.campaign_hash);

  // Per-shard PHV is provisional: at least one shard must disagree
  // with the global numbers, otherwise this test proves nothing.
  bool any_provisional_differs = false;
  for (const auto& shard : shards) {
    const auto [begin, end] =
        exec::shard_range(full.total_cells, shard.shard);
    for (std::size_t i = begin; i < end; ++i) {
      if (shard.cells[i - begin].phv != full.cells[i].phv) {
        any_provisional_differs = true;
      }
    }
  }
  EXPECT_TRUE(any_provisional_differs);

  // Merge order must not matter; every permutation reproduces the
  // unsharded report bitwise (digest, PHV, headers modulo timing).
  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2}, {2, 0, 1}, {1, 2, 0}};
  for (const auto& order : orders) {
    std::vector<exec::CampaignReport> input;
    for (std::size_t i : order) input.push_back(shards[i]);
    const exec::CampaignReport merged = merge(std::move(input));
    EXPECT_EQ(merged.objectives_digest(), full.objectives_digest());
    EXPECT_EQ(merged.total_cells, full.total_cells);
    EXPECT_EQ(merged.shard.count, 1u);
    ASSERT_EQ(merged.cells.size(), full.cells.size());
    for (std::size_t i = 0; i < full.cells.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.cells[i].phv),
                std::bit_cast<std::uint64_t>(full.cells[i].phv));
    }
  }
}

TEST(ReportMerge, MergeSurvivesSerdeRoundTripOfShards) {
  const exec::CampaignReport full =
      exec::CampaignRunner(governor_campaign(1)).run();
  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    exec::CampaignConfig config = governor_campaign(1);
    config.shard = exec::ShardSpec{i, 2};
    const std::string path = temp_path("shard" + std::to_string(i));
    save_report(path, exec::CampaignRunner(config).run());
    shards.push_back(load_report(path));
  }
  const exec::CampaignReport merged = merge(std::move(shards));
  EXPECT_EQ(merged.objectives_digest(), full.objectives_digest());
}

TEST(ReportMerge, StrictRejectsGapsAndAnyMergeRejectsOverlaps) {
  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    exec::CampaignConfig config = governor_campaign(1);
    config.shard = exec::ShardSpec{i, 3};
    shards.push_back(exec::CampaignRunner(config).run());
  }
  // Gap: strict fails, non-strict merges the partial set.  The partial
  // keeps the campaign's original total_cells and records its source
  // tiling so a later merge can continue from it.
  EXPECT_THROW(merge({shards[0], shards[2]}), Error);
  MergeOptions partial;
  partial.strict = false;
  const exec::CampaignReport merged =
      merge({shards[0], shards[2]}, partial);
  EXPECT_EQ(merged.cells.size(),
            shards[0].cells.size() + shards[2].cells.size());
  EXPECT_EQ(merged.total_cells, shards[0].total_cells);
  EXPECT_TRUE(merged.partial);
  EXPECT_EQ(merged.source_shard_count, 3u);
  EXPECT_EQ(merged.source_shards,
            (std::vector<std::size_t>{0, 2}));

  // The partial flag and source tiling survive the serde round trip.
  const std::string path = temp_path("partial");
  save_report(path, merged);
  const exec::CampaignReport reloaded = load_report(path);
  EXPECT_TRUE(reloaded.partial);
  EXPECT_EQ(reloaded.source_shard_count, 3u);
  EXPECT_EQ(reloaded.source_shards, merged.source_shards);
  // A partial alone still merges to a partial (identity-ish), but a
  // strict merge of an incomplete tiling keeps failing.
  EXPECT_THROW(merge({reloaded}), Error);
  // A complete merge result stays unflagged and re-mergeable, with no
  // source tiling recorded.
  const exec::CampaignReport complete =
      merge({shards[0], shards[1], shards[2]});
  EXPECT_FALSE(complete.partial);
  EXPECT_EQ(complete.source_shard_count, 0u);
  EXPECT_NO_THROW(merge({complete}));

  // Overlap: fatal regardless of strictness — including a shard that
  // is present both on its own and inside a partial.
  EXPECT_THROW(merge({shards[0], shards[0], shards[1]}, partial), Error);
  EXPECT_THROW(merge({reloaded, shards[0]}, partial), Error);

  // Foreign shard (different campaign): fatal regardless of strictness.
  exec::CampaignConfig other = governor_campaign(1);
  other.base_seed = 99;
  other.shard = exec::ShardSpec{1, 3};
  exec::CampaignReport foreign = exec::CampaignRunner(other).run();
  EXPECT_NE(foreign.campaign_hash, shards[0].campaign_hash);
  EXPECT_THROW(merge({shards[0], foreign, shards[2]}, partial), Error);
}

TEST(ReportMerge, IncrementalRemergeReachesTheSameFinalReport) {
  const exec::CampaignReport full =
      exec::CampaignRunner(governor_campaign(2)).run();
  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    exec::CampaignConfig config = governor_campaign(2);
    config.shard = exec::ShardSpec{i, 4};
    shards.push_back(exec::CampaignRunner(config).run());
  }

  // Stream the shards in one at a time, re-merging the provisional
  // with each new arrival — the daemon's streaming-merge loop.  Use a
  // non-monotone arrival order to exercise the explode + re-sort path.
  MergeOptions lax;
  lax.strict = false;
  exec::CampaignReport provisional = merge({shards[2]}, lax);
  EXPECT_TRUE(provisional.partial);
  provisional = merge({std::move(provisional), shards[0]}, lax);
  EXPECT_TRUE(provisional.partial);
  EXPECT_EQ(provisional.source_shards,
            (std::vector<std::size_t>{0, 2}));
  provisional = merge({std::move(provisional), shards[3]}, lax);
  EXPECT_TRUE(provisional.partial);
  provisional = merge({std::move(provisional), shards[1]}, lax);

  // The last arrival completes the tiling: the result is final (not
  // partial) and bitwise identical to the unsharded run.
  EXPECT_FALSE(provisional.partial);
  EXPECT_EQ(provisional.source_shard_count, 0u);
  EXPECT_EQ(provisional.objectives_digest(), full.objectives_digest());
  ASSERT_EQ(provisional.cells.size(), full.cells.size());
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(provisional.cells[i].phv),
              std::bit_cast<std::uint64_t>(full.cells[i].phv));
  }

  // Two disjoint partials also merge with each other, and a partial
  // that round-tripped through disk re-merges identically.
  exec::CampaignReport left = merge({shards[0], shards[1]}, lax);
  const exec::CampaignReport right = merge({shards[2], shards[3]}, lax);
  const std::string path = temp_path("left_partial");
  save_report(path, left);
  const exec::CampaignReport final_report =
      merge({load_report(path), right});
  EXPECT_FALSE(final_report.partial);
  EXPECT_EQ(final_report.objectives_digest(), full.objectives_digest());

  // A hand-built pre-v3 partial (no source tiling) stays terminal.
  exec::CampaignReport legacy = merge({shards[0], shards[1]}, lax);
  legacy.source_shard_count = 0;
  legacy.source_shards.clear();
  EXPECT_THROW(merge({legacy, right}, lax), Error);
}

TEST(ReportMerge, CampaignIdentityTracksCellDefiningConfigOnly) {
  exec::CampaignConfig a = governor_campaign(2);
  const std::uint64_t base = exec::campaign_identity(a);

  exec::CampaignConfig b = governor_campaign(2);
  b.shard = exec::ShardSpec{1, 4};
  b.num_threads = 7;
  EXPECT_EQ(exec::campaign_identity(b), base);  // execution details

  exec::CampaignConfig c = governor_campaign(2);
  c.base_seed = 5;
  EXPECT_NE(exec::campaign_identity(c), base);
  exec::CampaignConfig d = governor_campaign(2);
  d.scenarios[0].methods.pop_back();
  EXPECT_NE(exec::campaign_identity(d), base);
  exec::CampaignConfig e = governor_campaign(2);
  e.anchor_limit += 1;
  EXPECT_NE(exec::campaign_identity(e), base);

  // Non-default method configs contribute in sorted method order: a
  // regenerated plan listing the same configs in a different author
  // order is the same campaign, but changing a knob is not.
  auto rl = std::make_shared<methods::RlMethodConfig>();
  rl->episodes = 4;
  auto dypo = std::make_shared<methods::DypoMethodConfig>();
  dypo->num_clusters = 2;
  exec::CampaignConfig f = governor_campaign(2);
  f.method_configs.set("rl", rl);
  f.method_configs.set("dypo", dypo);
  exec::CampaignConfig g = governor_campaign(2);
  g.method_configs.set("dypo", dypo);
  g.method_configs.set("rl", rl);
  EXPECT_NE(exec::campaign_identity(f), base);
  EXPECT_EQ(exec::campaign_identity(f), exec::campaign_identity(g));
  auto rl2 = std::make_shared<methods::RlMethodConfig>();
  rl2->episodes = 5;
  exec::CampaignConfig h = governor_campaign(2);
  h.method_configs.set("rl", rl2);
  h.method_configs.set("dypo", dypo);
  EXPECT_NE(exec::campaign_identity(h), exec::campaign_identity(f));
  // A defaulted entry contributes nothing (the cache-key rule).
  exec::CampaignConfig i = governor_campaign(2);
  i.method_configs.set("rl", std::make_shared<methods::RlMethodConfig>());
  EXPECT_EQ(exec::campaign_identity(i), base);
}

// --------------------------------------------------------- analytics

TEST(ReportAnalytics, RanksMethodsAndNormalizesAgainstParmis) {
  exec::CampaignReport report;
  report.shard = exec::ShardSpec{0, 1};
  auto add_cell = [&](const std::string& method,
                      std::vector<num::Vec> front, double phv) {
    exec::CellResult cell;
    cell.scenario = "s";
    cell.platform = "exynos5422";
    cell.method = method;
    cell.seed = 1;
    cell.objective_names = {"time", "energy"};
    cell.front = std::move(front);
    cell.phv = phv;
    report.cells.push_back(std::move(cell));
  };
  // parmis spans the combined front; governor sits strictly inside it.
  add_cell("parmis", {{0.0, 1.0}, {1.0, 0.0}}, 4.0);
  add_cell("ondemand", {{1.0, 1.0}}, 1.0);
  add_cell("broken", {}, 0.0);
  report.cells.back().error = "boom";
  report.total_cells = report.cells.size();

  const std::vector<ScenarioAnalytics> all = analyze(report);
  ASSERT_EQ(all.size(), 1u);
  const ScenarioAnalytics& sa = all[0];
  EXPECT_EQ(sa.scenario, "s");
  EXPECT_EQ(sa.normalizer, "parmis");
  EXPECT_EQ(sa.combined_front_size, 2u);  // ondemand's point is dominated
  ASSERT_EQ(sa.ranking.size(), 3u);
  EXPECT_EQ(sa.ranking[0].method, "parmis");
  EXPECT_DOUBLE_EQ(sa.ranking[0].norm_phv, 1.0);
  EXPECT_DOUBLE_EQ(sa.ranking[0].igd_plus, 0.0);   // equals the reference
  EXPECT_DOUBLE_EQ(sa.ranking[0].epsilon, 0.0);
  EXPECT_EQ(sa.ranking[1].method, "ondemand");
  EXPECT_DOUBLE_EQ(sa.ranking[1].norm_phv, 0.25);
  EXPECT_DOUBLE_EQ(sa.ranking[1].epsilon, 1.0);  // (1,1) vs (0,1)/(1,0)
  EXPECT_EQ(sa.ranking[2].method, "broken");
  EXPECT_EQ(sa.ranking[2].failed, 1u);
  EXPECT_EQ(sa.ranking[2].cells, 0u);

  // JSON emitter produces the versioned document.
  const json::Value doc = analytics_to_json(all);
  EXPECT_EQ(doc.at("schema").as_string(), kAnalyticsSchema);
  EXPECT_EQ(doc.at("scenarios").size(), 1u);

  std::ostringstream os;
  print_analytics(os, all);
  EXPECT_NE(os.str().find("parmis"), std::string::npos);
  EXPECT_NE(os.str().find("norm_phv"), std::string::npos);
}

// ----------------------------------------------------- CSV hardening

TEST(CsvRoundTrip, HostileCellsSurviveTableEmission) {
  Table table({"name", "value"});
  const std::vector<std::string> hostile = {
      "plain", "comma,inside", "quote\"inside", "line\nbreak",
      "cr\rreturn", "\"fully quoted\"", "trailing,", ",,", ""};
  for (const auto& cell : hostile) {
    table.begin_row().add(cell).add("x");
  }
  std::ostringstream os;
  table.write_csv(os);
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), hostile.size() + 1);  // header + rows
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "value"}));
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    ASSERT_EQ(rows[i + 1].size(), 2u) << hostile[i];
    EXPECT_EQ(rows[i + 1][0], hostile[i]);
  }
}

TEST(CsvRoundTrip, CampaignCsvWithHostileScenarioNamesParsesBack) {
  exec::CampaignReport report = synthetic_report();
  std::ostringstream os;
  report.write_csv(os);
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), report.cells.size() + 1);
  // Uniform column count despite embedded separators and newlines.
  for (const auto& row : rows) EXPECT_EQ(row.size(), rows[0].size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(rows[i + 1][0], report.cells[i].scenario);
    EXPECT_EQ(rows[i + 1][2], report.cells[i].method);
  }
  // The multi-line error string lands intact in its column.
  const std::size_t error_col = 13;
  ASSERT_EQ(rows[0][error_col], "error");
  EXPECT_EQ(rows[3][error_col], report.cells[2].error);
}

TEST(CsvRoundTrip, ParserToleratesCrlfAndMissingFinalNewline) {
  const auto rows = parse_csv("a,b\r\n\"x,y\",2\r\nlast,3");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"x,y", "2"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"last", "3"}));
  EXPECT_THROW(parse_csv("\"unterminated"), Error);
}

}  // namespace
}  // namespace parmis::report
