// Tests for the policy-serving subsystem (src/serve): mode registry,
// snapshot compilation, decide semantics, NDJSON protocol, hot-swap
// under concurrent batched readers, and the pinned decision digest.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "scenario/scenario.hpp"
#include "serde/json_util.hpp"
#include "serde/plan.hpp"
#include "serve/envelope.hpp"
#include "serve/modes.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "fuzz_mutations.hpp"
#include "report_oracle.hpp"

namespace parmis::serve {
namespace {

std::string temp_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "parmis_serve_" + tag + "_" +
         std::to_string(counter.fetch_add(1)) + ".json";
}

exec::CellResult make_cell(const std::string& scenario,
                           const std::string& method, std::uint64_t seed,
                           std::vector<std::string> objectives,
                           std::vector<num::Vec> front,
                           std::vector<num::Vec> thetas, double phv) {
  exec::CellResult cell;
  cell.scenario = scenario;
  cell.platform = "synthetic";
  cell.method = method;
  cell.seed = seed;
  cell.objective_names = std::move(objectives);
  cell.num_apps = 1;
  cell.evaluations = 4;
  cell.front = std::move(front);
  cell.pareto_thetas = std::move(thetas);
  cell.phv = phv;
  return cell;
}

/// Deterministic two-scenario report: "alpha" (time/energy) served by
/// "parmis" (thetas) and "governor" (no thetas), "beta" (energy/PPW)
/// by "parmis" only.  `variant` shifts alpha/parmis's knee member so
/// snapshots built from different variants answer differently — the
/// hot-swap tests key on that.
exec::CampaignReport make_report(double variant = 5.0) {
  exec::CampaignReport report;
  report.num_threads = 1;
  report.shard = exec::ShardSpec{0, 1};
  report.total_cells = 4;
  report.cells = {
      make_cell("alpha", "parmis", 1, {"time_s", "energy_j"},
                {{1.0, 9.0}, {variant, variant}, {9.0, 1.0}},
                {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}, 40.0),
      // Second seed: one duplicate of a seed-1 member (first
      // occurrence must win) and one dominated point (filtered out).
      make_cell("alpha", "parmis", 2, {"time_s", "energy_j"},
                {{1.0, 9.0}, {9.5, 9.5}}, {{0.7, 0.8}, {0.9, 1.0}}, 39.0),
      make_cell("alpha", "governor", 1, {"time_s", "energy_j"},
                {{2.0, 2.0}}, {}, 30.0),
      make_cell("beta", "parmis", 1, {"energy_j", "ppw_gips_per_w"},
                {{1.0, -4.0}, {3.0, -8.0}}, {{1.5}, {2.5}}, 10.0),
  };
  return report;
}

std::shared_ptr<const Snapshot> install(PolicyStore& store,
                                        double variant = 5.0) {
  return store.build_and_install({make_report(variant)}, {"unit"});
}

DecideRequest request(const std::string& scenario,
                      const std::string& method = "",
                      const std::string& mode = "") {
  DecideRequest r;
  r.scenario = scenario;
  r.method = method;
  r.mode = mode;
  return r;
}

// ---------------------------------------------------------------- modes

TEST(Modes, BuiltInsAreRegisteredInOrder) {
  const ModeRegistry registry;
  ASSERT_EQ(registry.modes().size(), 4u);
  EXPECT_EQ(registry.modes()[0].name, "performance");
  EXPECT_EQ(registry.modes()[1].name, "balanced");
  EXPECT_EQ(registry.modes()[2].name, "powersave");
  EXPECT_EQ(registry.modes()[3].name, "thermal-critical");
  for (const auto& mode : registry.modes()) {
    EXPECT_EQ(mode.source, "built-in");
  }
  EXPECT_EQ(registry.index_of("balanced"), 1u);
}

TEST(Modes, UnknownModeErrorListsRegisteredNames) {
  const ModeRegistry registry;
  try {
    registry.index_of("gamer");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown mode: gamer"), std::string::npos) << what;
    EXPECT_NE(what.find(
                  "balanced, performance, powersave, thermal-critical"),
              std::string::npos)
        << what;
  }
}

json::Value modes_doc(const std::string& inner) {
  return json::parse(std::string("{\"schema\":\"parmis-modes-v1\","
                                 "\"modes\":[") +
                     inner + "]}");
}

TEST(Modes, UserModesLoadAndExtendBuiltIns) {
  ModeRegistry registry;
  registry.load_document(
      modes_doc("{\"name\":\"gaming\",\"description\":\"fps first\","
                "\"rule\":\"weights\",\"weights\":{\"time_s\":5,"
                "\"peak_power_w\":1}},"
                "{\"name\":\"longhaul\",\"rule\":\"best_for\","
                "\"objective\":\"edp_js\"}"),
      "unit.json");
  ASSERT_EQ(registry.modes().size(), 6u);
  EXPECT_EQ(registry.modes()[4].name, "gaming");
  EXPECT_EQ(registry.modes()[4].rule, ModeRule::Weights);
  EXPECT_EQ(registry.modes()[4].source, "unit.json");
  EXPECT_EQ(registry.modes()[5].rule, ModeRule::BestFor);
  EXPECT_EQ(registry.modes()[5].best_for, runtime::ObjectiveKind::EDP);
}

TEST(Modes, RejectsCollisionsReservedNamesAndBadRules) {
  ModeRegistry registry;
  // Redefining a built-in.
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"balanced\","
                             "\"rule\":\"knee_point\"}"),
                   "dup.json"),
               Error);
  // Reserved dispatcher names.
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"auto\",\"rule\":\"knee_point\"}"),
                   "auto.json"),
               Error);
  // Unknown rule, unknown objective, bad weights, unknown keys.
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"x\",\"rule\":\"vibes\"}"),
                   "bad.json"),
               Error);
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"x\",\"rule\":\"best_for\","
                             "\"objective\":\"joules\"}"),
                   "bad.json"),
               Error);
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"x\",\"rule\":\"weights\","
                             "\"weights\":{\"time_s\":0}}"),
                   "bad.json"),
               Error);
  EXPECT_THROW(registry.load_document(
                   modes_doc("{\"name\":\"x\",\"rule\":\"knee_point\","
                             "\"surprise\":1}"),
                   "bad.json"),
               Error);
  // Wrong schema tag.
  EXPECT_THROW(
      registry.load_document(
          json::parse("{\"schema\":\"parmis-modes-v9\",\"modes\":[]}"),
          "bad.json"),
      Error);
}

// ------------------------------------------------------------- snapshot

TEST(SnapshotBuild, MergesSeedsFiltersDominatedAndKeepsThetasAligned) {
  PolicyStore store;
  const auto snap = install(store);

  ASSERT_EQ(snap->entries.size(), 3u);  // sorted by (scenario, method)
  EXPECT_EQ(snap->entries[0].scenario, "alpha");
  EXPECT_EQ(snap->entries[0].method, "governor");
  EXPECT_EQ(snap->entries[1].method, "parmis");
  EXPECT_EQ(snap->entries[2].scenario, "beta");

  // alpha/parmis: 5 staged points -> duplicate {1,9} keeps the seed-1
  // copy, dominated {9.5,9.5} drops; thetas follow their points.
  const PolicyEntry& parmis = snap->entries[1];
  ASSERT_EQ(parmis.front.size(), 3u);
  ASSERT_EQ(parmis.thetas.size(), 3u);
  EXPECT_EQ(parmis.thetas[0], (num::Vec{0.1, 0.2}));
  EXPECT_EQ(parmis.cells, 2u);
  EXPECT_EQ(parmis.phv, 40.0);

  // governor contributed no thetas.
  EXPECT_TRUE(snap->entries[0].thetas.empty());

  // Default method: highest PHV.
  EXPECT_EQ(snap->scenarios.at("alpha").default_entry, 1u);
  EXPECT_EQ(snap->find("alpha", "").method, "parmis");
}

TEST(SnapshotBuild, MixedThetaCoverageDropsThetasEntirely) {
  // One seed with thetas + one without: a partial pairing could hand
  // back the wrong policy, so the entry must carry none at all.
  exec::CampaignReport report = make_report();
  report.cells[1].pareto_thetas.clear();
  PolicyStore store;
  const auto snap = store.build_and_install({report}, {"unit"});
  EXPECT_TRUE(snap->find("alpha", "parmis").thetas.empty());
}

TEST(SnapshotBuild, RejectsPartialMismatchedAndUnknownObjectives) {
  PolicyStore store;

  exec::CampaignReport partial = make_report();
  partial.partial = true;
  EXPECT_THROW(store.build_and_install({partial}, {"p.json"}), Error);

  // Same scenario, different objective set across reports.
  exec::CampaignReport other = make_report();
  for (auto& cell : other.cells) {
    if (cell.scenario == "alpha") {
      cell.objective_names = {"time_s", "edp_js"};
    }
  }
  EXPECT_THROW(
      store.build_and_install({make_report(), other}, {"a", "b"}), Error);

  // Objective name that maps to no known kind.
  exec::CampaignReport unknown = make_report();
  unknown.cells[0].objective_names = {"time_s", "joules"};
  EXPECT_THROW(store.build_and_install({unknown}, {"u"}), Error);

  // An objective named twice: a decision's objectives could not be one
  // JSON object.
  exec::CampaignReport twice = make_report();
  for (auto& cell : twice.cells) {
    if (cell.scenario == "alpha") cell.objective_names = {"time_s", "time_s"};
  }
  EXPECT_THROW(store.build_and_install({twice}, {"t"}), Error);

  // Nothing servable at all.
  exec::CampaignReport empty = make_report();
  for (auto& cell : empty.cells) cell.error = "boom";
  EXPECT_THROW(store.build_and_install({empty}, {"e"}), Error);

  // All failures above kept the store empty (strong guarantee).
  EXPECT_EQ(store.acquire(), nullptr);
  EXPECT_THROW(store.require_snapshot(), Error);
}

TEST(SnapshotBuild, SkipsErrorCellsAndCountsThem) {
  exec::CampaignReport report = make_report();
  report.cells[1].error = "cell failed";
  PolicyStore store;
  const auto snap = store.build_and_install({report}, {"unit"});
  EXPECT_EQ(snap->skipped_cells, 1u);
  // alpha/parmis now has only seed 1's front.
  EXPECT_EQ(snap->find("alpha", "parmis").cells, 1u);
}

TEST(SnapshotBuild, ErrorsListServableNames) {
  PolicyStore store;
  const auto snap = install(store);
  try {
    snap->find("gamma", "");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("servable: alpha, beta"),
              std::string::npos)
        << e.what();
  }
  try {
    snap->find("alpha", "dypo");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("servable: governor, parmis"),
              std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- decide

TEST(Decide, NamedModesMatchTheLiveSelector) {
  PolicyStore store;
  const auto snap = install(store);
  PolicyServer server(store);

  const PolicyEntry& entry = snap->find("alpha", "parmis");
  EXPECT_EQ(server.decide_on(*snap, request("alpha", "parmis")).index,
            entry.selector.knee_point());  // default mode = balanced
  EXPECT_EQ(
      server.decide_on(*snap, request("alpha", "parmis", "performance"))
          .index,
      entry.selector.best_for_objective(0));
  EXPECT_EQ(
      server.decide_on(*snap, request("alpha", "parmis", "powersave"))
          .index,
      entry.selector.best_for_objective(1));
  // thermal-critical resolves through its weight vector.
  const Decision thermal =
      server.decide_on(*snap, request("alpha", "parmis", "thermal-critical"));
  EXPECT_EQ(thermal.index, entry.selector.select({1.0, 4.0}));
  EXPECT_EQ(thermal.mode, "thermal-critical");
}

TEST(Decide, ExplicitWeightsAndConflicts) {
  PolicyStore store;
  const auto snap = install(store);
  PolicyServer server(store);

  DecideRequest r = request("alpha", "parmis");
  r.weights = {{"time_s", 1.0}};
  const Decision d = server.decide_on(*snap, r);
  EXPECT_EQ(d.mode, "weights");
  EXPECT_EQ(d.index, snap->find("alpha", "parmis").selector.select(
                         {1.0, 0.0}));

  r.mode = "balanced";  // mode + weights is ambiguous
  EXPECT_THROW(server.decide_on(*snap, r), Error);

  DecideRequest bad = request("alpha", "parmis");
  bad.weights = {{"watts", 1.0}};
  EXPECT_THROW(server.decide_on(*snap, bad), Error);
}

TEST(Decide, InapplicableModeIsAnErrorNotAMisresolve) {
  // powersave needs energy_j; strip it from a copy of beta.
  exec::CampaignReport report = make_report();
  report.cells[3].objective_names = {"time_s", "ppw_gips_per_w"};
  PolicyStore store;
  const auto snap = store.build_and_install({report}, {"unit"});
  PolicyServer server(store);
  EXPECT_EQ(snap->find("beta", "parmis")
                .mode_choice[store.modes().index_of("powersave")],
            kModeInapplicable);
  EXPECT_THROW(
      server.decide_on(*snap, request("beta", "parmis", "powersave")),
      Error);
  // thermal-critical weights every kind, so it still applies.
  EXPECT_NO_THROW(server.decide_on(
      *snap, request("beta", "parmis", "thermal-critical")));
}

TEST(Decide, AutoModeDispatchesOnWorkloadCounters) {
  Workload w;
  EXPECT_STREQ(auto_mode(w), "balanced");
  w.load = 0.95;
  EXPECT_STREQ(auto_mode(w), "performance");
  w.battery_pct = 10.0;
  EXPECT_STREQ(auto_mode(w), "powersave");  // battery beats load
  w.thermal_headroom_c = 2.0;
  EXPECT_STREQ(auto_mode(w), "thermal-critical");  // thermal beats all

  PolicyStore store;
  const auto snap = install(store);
  PolicyServer server(store);
  DecideRequest r = request("alpha", "parmis", "auto");
  r.workload.battery_pct = 5.0;
  EXPECT_EQ(server.decide_on(*snap, r).mode, "powersave");
  r.workload.battery_pct = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(server.decide_on(*snap, r), Error);
}

TEST(Decide, RawObjectivesUndoMinimizationConvention) {
  PolicyStore store;
  const auto snap = install(store);
  // beta's ppw_gips_per_w is maximized (stored negated): raw must
  // come back positive.
  const PolicyEntry& entry = snap->find("beta", "parmis");
  const num::Vec raw = entry.raw_objectives(1);
  EXPECT_EQ(raw[0], 3.0);
  EXPECT_EQ(raw[1], 8.0);
}

// ------------------------------------------------------------- hot swap

TEST(HotSwap, ReadersNeverSeeTornStateAndOldSnapshotsStayValid) {
  PolicyStore store;
  install(store, 5.0);  // generation 1: knee member (5,5)

  // Decisions per generation parity: odd generations serve variant
  // 5.0 (knee raw (5,5)), even ones variant 2.0 (knee raw (2,2)).
  const std::vector<DecideRequest> batch = {
      request("alpha", "parmis"),            // balanced -> knee
      request("alpha", "", "performance"),   // default method = parmis
      request("alpha", "governor"),
      request("beta", "parmis", "powersave"),
  };

  PolicyServer server(store);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> batches{0};
  std::atomic<std::size_t> failures{0};

  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      install(store, i % 2 == 0 ? 2.0 : 5.0);  // gen 2,3,...,201
    }
    done.store(true);
  });

  exec::ThreadPool pool(4);
  pool.parallel_for(4, [&](std::size_t) {
    do {
      const PolicyServer::Batch result = server.decide_batch(batch);
      const double expected =
          result.snapshot->generation % 2 == 1 ? 5.0 : 2.0;
      // Every decision in the batch must come from ONE generation's
      // data: the knee of alpha/parmis pins the variant, and the
      // other answers are generation-invariant but must stay intact.
      const num::Vec knee =
          result.decisions[0].entry->raw_objectives(
              result.decisions[0].index);
      if (knee[0] != expected || knee[1] != expected) ++failures;
      if (result.decisions[1].index != 0) ++failures;  // min time {1,9}
      if (result.decisions[2].entry->front[0] != (num::Vec{2.0, 2.0})) {
        ++failures;
      }
      if (result.decisions[3].index != 0) ++failures;  // min energy
      ++batches;
    } while (!done.load());
  });
  writer.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(batches.load(), 4u);
  EXPECT_EQ(store.generation(), 201u);

  // A reader that acquired before a swap keeps a fully valid snapshot.
  const auto held = store.acquire();
  install(store, 7.0);
  EXPECT_EQ(held->generation, 201u);
  EXPECT_NO_THROW(held->find("alpha", "parmis"));
  EXPECT_EQ(store.acquire()->generation, 202u);
}

TEST(HotSwap, DecisionsAreBitwiseDeterministicPerSnapshotGeneration) {
  PolicyStore a;
  PolicyStore b;
  install(a);
  install(b);
  PolicyServer sa(a);
  PolicyServer sb(b);
  const std::vector<DecideRequest> batch = {
      request("alpha", "parmis"), request("alpha", "parmis", "powersave"),
      request("beta", "parmis", "thermal-critical")};
  const auto ra = sa.decide_batch(batch);
  const auto rb = sb.decide_batch(batch);
  ASSERT_EQ(ra.decisions.size(), rb.decisions.size());
  for (std::size_t i = 0; i < ra.decisions.size(); ++i) {
    EXPECT_EQ(ra.decisions[i].index, rb.decisions[i].index);
    EXPECT_EQ(ra.decisions[i].mode, rb.decisions[i].mode);
    const num::Vec va =
        ra.decisions[i].entry->raw_objectives(ra.decisions[i].index);
    const num::Vec vb =
        rb.decisions[i].entry->raw_objectives(rb.decisions[i].index);
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t j = 0; j < va.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(va[j]),
                std::bit_cast<std::uint64_t>(vb[j]));
    }
  }
}

// ------------------------------------------------------------- protocol

std::string one_line(ServeSession& session, const std::string& line) {
  const auto outcome = session.handle_line(line);
  return outcome.response;
}

TEST(Protocol, DecideModesScenariosPingAndIdEcho) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});

  const json::Value ping = json::parse(one_line(session, "{\"op\":\"ping\"}"));
  EXPECT_TRUE(ping.at("ok").as_bool());
  EXPECT_EQ(ping.at("protocol").as_string(), kServeProtocol);
  EXPECT_GE(ping.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(ping.at("reports").as_number(), 0.0);  // no backing files here
  EXPECT_EQ(ping.at("decisions").as_number(), 0.0);

  const json::Value decide = json::parse(one_line(
      session,
      "{\"op\":\"decide\",\"id\":\"r1\",\"scenario\":\"alpha\","
      "\"mode\":\"powersave\"}"));
  EXPECT_TRUE(decide.at("ok").as_bool());
  EXPECT_EQ(decide.at("id").as_string(), "r1");
  EXPECT_EQ(decide.at("method").as_string(), "parmis");
  EXPECT_EQ(decide.at("mode").as_string(), "powersave");
  EXPECT_EQ(decide.at("index").as_number(), 2.0);  // {9,1}: min energy
  EXPECT_EQ(decide.at("objectives").at("energy_j").as_number(), 1.0);
  EXPECT_EQ(decide.at("theta").size(), 2u);
  EXPECT_EQ(session.decisions(), 1u);

  const json::Value modes =
      json::parse(one_line(session, "{\"op\":\"modes\"}"));
  EXPECT_EQ(modes.at("modes").size(), 4u);

  const json::Value scenarios =
      json::parse(one_line(session, "{\"op\":\"scenarios\"}"));
  EXPECT_EQ(scenarios.at("scenarios").size(), 2u);
  EXPECT_EQ(scenarios.at("scenarios").at(std::size_t{0})
                .at("default_method")
                .as_string(),
            "parmis");
}

TEST(Protocol, PingCountsDecisionsAndBackingReports) {
  const std::string path = temp_path("ping_reports");
  {
    std::ofstream os(path);
    report::write_report(os, make_report());
  }
  PolicyStore store;
  store.load_and_install({path});
  ServeSession session(store, {path});
  one_line(session, "{\"op\":\"decide\",\"scenario\":\"alpha\"}");
  const json::Value ping = json::parse(one_line(session, "{\"op\":\"ping\"}"));
  EXPECT_EQ(ping.at("reports").as_number(), 1.0);
  EXPECT_EQ(ping.at("decisions").as_number(), 1.0);
  EXPECT_EQ(ping.at("generation").as_number(), 1.0);
  std::filesystem::remove(path);
}

TEST(Protocol, MetricsVerbReturnsRegistryInBothFormats) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});

  // JSON (default): the whole parmis-metrics-v1 document rides in the
  // envelope.  Present in OBS-on and OBS-off builds alike — only the
  // set of registered metrics differs.
  const json::Value doc =
      json::parse(one_line(session, "{\"op\":\"metrics\"}"));
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("metrics").at("schema").as_string(), "parmis-metrics-v1");
  EXPECT_TRUE(doc.at("metrics").at("metrics").is_object());

  const json::Value prom = json::parse(one_line(
      session, "{\"op\":\"metrics\",\"format\":\"prometheus\"}"));
  EXPECT_TRUE(prom.at("ok").as_bool());
  EXPECT_EQ(prom.at("format").as_string(), "prometheus");
  EXPECT_TRUE(prom.at("text").is_string());

  const json::Value bad = json::parse(one_line(
      session, "{\"op\":\"metrics\",\"format\":\"xml\"}"));
  EXPECT_FALSE(bad.at("ok").as_bool());

#ifdef PARMIS_OBS_ENABLED
  // The decide above must be visible through the verb: sessions count
  // decisions into parmis_serve_decisions_total.
  one_line(session, "{\"op\":\"decide\",\"scenario\":\"alpha\"}");
  const json::Value after =
      json::parse(one_line(session, "{\"op\":\"metrics\"}"));
  const json::Value& metrics = after.at("metrics").at("metrics");
  EXPECT_GE(metrics.at("parmis_serve_decisions_total").at("value").as_number(),
            1.0);
  EXPECT_GE(metrics.at("parmis_serve_op_metrics_total").at("value")
                .as_number(),
            2.0);
#endif
}

TEST(Protocol, BatchSharesOneGenerationAndIsolatesItemErrors) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});
  const json::Value batch = json::parse(one_line(
      session,
      "{\"op\":\"batch\",\"requests\":["
      "{\"scenario\":\"alpha\"},"
      "{\"scenario\":\"gamma\"},"
      "{\"scenario\":\"beta\",\"mode\":\"powersave\"}]}"));
  EXPECT_TRUE(batch.at("ok").as_bool());
  const json::Value& results = batch.at("results");
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results.at(std::size_t{0}).at("ok").as_bool());
  EXPECT_FALSE(results.at(std::size_t{1}).at("ok").as_bool());
  EXPECT_NE(results.at(std::size_t{1}).at("error").as_string().find(
                "unknown scenario"),
            std::string::npos);
  EXPECT_TRUE(results.at(std::size_t{2}).at("ok").as_bool());
  EXPECT_EQ(session.decisions(), 2u);  // failed item contributes none
}

TEST(Protocol, MalformedLinesAnswerErrorsAndTheSessionContinues) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});

  EXPECT_TRUE(one_line(session, "   ").empty());  // blank: no response

  const json::Value bad = json::parse(one_line(session, "{nope"));
  EXPECT_FALSE(bad.at("ok").as_bool());

  const json::Value unknown =
      json::parse(one_line(session, "{\"op\":\"dance\"}"));
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_NE(unknown.at("error").as_string().find("unknown op"),
            std::string::npos);

  const json::Value extra = json::parse(one_line(
      session, "{\"op\":\"decide\",\"scenario\":\"alpha\",\"x\":1}"));
  EXPECT_FALSE(extra.at("ok").as_bool());

  // Still serving.
  const auto quit = session.handle_line("{\"op\":\"quit\"}");
  EXPECT_TRUE(quit.quit);
  EXPECT_TRUE(json::parse(quit.response).at("ok").as_bool());
}

TEST(Protocol, AValidIdIsEchoedEvenWhenOpIsMissingOrMistyped) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});

  const json::Value no_op = json::parse(one_line(session, "{\"id\":\"r9\"}"));
  EXPECT_FALSE(no_op.at("ok").as_bool());
  EXPECT_EQ(no_op.at("id").as_string(), "r9");
  EXPECT_EQ(no_op.find("op"), nullptr);
  EXPECT_NE(no_op.at("error").as_string().find("missing required key \"op\""),
            std::string::npos);

  const json::Value bad_op =
      json::parse(one_line(session, "{\"op\":5,\"id\":\"r10\"}"));
  EXPECT_FALSE(bad_op.at("ok").as_bool());
  EXPECT_EQ(bad_op.at("id").as_string(), "r10");
  EXPECT_EQ(bad_op.find("op"), nullptr);

  // An id that is neither a string nor a number is rejected and never
  // echoed; a valid op still is.
  for (const char* line : {"{\"op\":\"decide\",\"id\":null}",
                           "{\"op\":\"decide\",\"id\":{}}"}) {
    const json::Value bad_id = json::parse(one_line(session, line));
    EXPECT_FALSE(bad_id.at("ok").as_bool()) << line;
    EXPECT_EQ(bad_id.find("id"), nullptr) << line;
    EXPECT_EQ(bad_id.at("op").as_string(), "decide") << line;
    EXPECT_NE(bad_id.at("error").as_string().find(
                  "\"id\" must be a string or number"),
              std::string::npos);
  }
}

TEST(Protocol, ReloadHotSwapsFromDiskAndTamperedFilesAreRejected) {
  const std::string path = temp_path("reload");
  report::save_report(path, make_report(5.0));

  PolicyStore store;
  store.load_and_install({path});
  ServeSession session(store, {path});
  EXPECT_EQ(store.generation(), 1u);

  report::save_report(path, make_report(2.0));
  const json::Value reload =
      json::parse(one_line(session, "{\"op\":\"reload\"}"));
  EXPECT_TRUE(reload.at("ok").as_bool());
  EXPECT_EQ(store.generation(), 2u);
  const num::Vec knee = store.acquire()
                            ->find("alpha", "parmis")
                            .raw_objectives(1);
  EXPECT_EQ(knee[0], 2.0);

  // Tamper with a stored objective byte: the report serde's digest
  // check must refuse it, and the good snapshot must stay installed.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t pos = text.find("9.5");  // seed-2 front value
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "8.5");
  std::ofstream(path) << text;
  const json::Value failed =
      json::parse(one_line(session, "{\"op\":\"reload\"}"));
  EXPECT_FALSE(failed.at("ok").as_bool());
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_EQ(store.acquire()->generation, 2u);

  // A session with no backing files cannot reload.
  ServeSession detached(store, {});
  EXPECT_FALSE(json::parse(one_line(detached, "{\"op\":\"reload\"}"))
                   .at("ok")
                   .as_bool());
}

// ---------------------------------------------------------- digest pins

/// The canned replay used for the digest pin and the sharded-equality
/// check; exercises modes, default method, weights, and batches.
const char* const kReplayLines[] = {
    "{\"op\":\"decide\",\"scenario\":\"alpha\"}",
    "{\"op\":\"decide\",\"scenario\":\"alpha\",\"mode\":\"performance\"}",
    "{\"op\":\"decide\",\"scenario\":\"alpha\",\"method\":\"governor\","
    "\"mode\":\"thermal-critical\"}",
    "{\"op\":\"batch\",\"requests\":[{\"scenario\":\"beta\",\"weights\":"
    "{\"energy_j\":1,\"ppw_gips_per_w\":3}},{\"scenario\":\"beta\","
    "\"mode\":\"auto\",\"workload\":{\"thermal_headroom_c\":1.5}}]}",
};

std::uint64_t replay_digest(ServeSession& session) {
  for (const char* line : kReplayLines) {
    const auto outcome = session.handle_line(line);
    EXPECT_TRUE(json::parse(outcome.response).at("ok").as_bool())
        << outcome.response;
  }
  return session.decision_digest();
}

TEST(DecisionDigest, GoldenPinOnTheSyntheticReport) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});
  const std::uint64_t digest = replay_digest(session);
  EXPECT_EQ(session.decisions(), 5u);
  // Golden pin: decisions over a fixed snapshot are part of the
  // serving contract.  An intentional change to decision semantics,
  // response canonicalization, or selector tie-breaking must update
  // this constant consciously.
  EXPECT_EQ(hex64(digest), "1e151ba7cc5bbb47");
}

TEST(DecisionDigest, ShardedThenMergedServesBitIdenticalToUnsharded) {
  // Real campaign, sharded 3 ways, merged — decisions and digest must
  // equal the unsharded run's exactly (the CI smoke pins the same
  // property on the manycore plan).
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  config.scenarios[0].methods = {"performance", "powersave", "ondemand"};
  config.seeds_per_cell = 2;
  const exec::CampaignReport full = exec::CampaignRunner(config).run();

  std::vector<exec::CampaignReport> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    exec::CampaignConfig sharded = config;
    sharded.shard = exec::ShardSpec{i, 3};
    shards.push_back(exec::CampaignRunner(sharded).run());
  }
  const exec::CampaignReport merged = report::merge(std::move(shards));

  PolicyStore store_full;
  PolicyStore store_merged;
  store_full.build_and_install({full}, {"full"});
  store_merged.build_and_install({merged}, {"merged"});

  ServeSession session_full(store_full, {});
  ServeSession session_merged(store_merged, {});
  const char* const lines[] = {
      "{\"op\":\"decide\",\"scenario\":\"xu3-synthetic-te\"}",
      "{\"op\":\"decide\",\"scenario\":\"xu3-synthetic-te\","
      "\"mode\":\"performance\"}",
      "{\"op\":\"decide\",\"scenario\":\"xu3-synthetic-te\","
      "\"method\":\"ondemand\",\"mode\":\"powersave\"}",
      "{\"op\":\"decide\",\"scenario\":\"xu3-synthetic-te\",\"weights\":"
      "{\"time_s\":2,\"energy_j\":5}}",
  };
  for (const char* line : lines) {
    EXPECT_EQ(session_full.handle_line(line).response,
              session_merged.handle_line(line).response);
  }
  EXPECT_EQ(session_full.decision_digest(),
            session_merged.decision_digest());
  EXPECT_EQ(session_full.decisions(), 4u);
}

// ------------------------------------------------- streamed == tree

/// The tree-building response path the streamed writer replaced, kept
/// here as the byte oracle: every decision is built as a json::Value,
/// its members are copied into an envelope tree, and the envelope is
/// finished with json::dump_compact.  The digest folds
/// dump_compact(decision object), the definition the pins were taken
/// with.
class TreeOracle {
 public:
  explicit TreeOracle(PolicyStore& store) : store_(store), server_(store) {}

  /// The response the tree path writes for `line`.  Values that change
  /// between two answers to the same line (ping's uptime_s, the metrics
  /// registry) are taken from `streamed`, the parsed response under
  /// test; reload's result is read back from the store.
  std::string respond(const std::string& line, const json::Value& streamed) {
    std::string op;
    json::Value id;
    json::Value envelope = json::Value::object();
    try {
      const json::Value doc = json::parse(line);
      serde::ObjectReader reader(doc, "request");
      op = reader.get_string("op");
      if (const json::Value* given = reader.optional_key("id")) {
        require(given->is_string() || given->is_number(), "bad id");
        id = *given;
      }
      json::Value body = dispatch(reader, op, streamed);
      envelope.set("ok", json::Value::boolean(true));
      envelope.set("op", json::Value::string(op));
      if (!id.is_null()) envelope.set("id", id);
      for (const auto& [key, value] : body.members()) {
        envelope.set(key, value);
      }
    } catch (const std::exception& e) {
      envelope = json::Value::object();
      envelope.set("ok", json::Value::boolean(false));
      if (!op.empty()) envelope.set("op", json::Value::string(op));
      if (!id.is_null()) envelope.set("id", id);
      envelope.set("error", json::Value::string(e.what()));
    }
    return json::dump_compact(envelope);
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t decisions() const { return decisions_; }

 private:
  json::Value decision_body(const Decision& decision) {
    const PolicyEntry& entry = *decision.entry;
    json::Value body = json::Value::object();
    body.set("scenario", json::Value::string(entry.scenario));
    body.set("method", json::Value::string(entry.method));
    body.set("mode", json::Value::string(decision.mode));
    body.set("index", serde::u64_to_json(decision.index));
    const num::Vec raw = entry.raw_objectives(decision.index);
    json::Value objectives = json::Value::object();
    for (std::size_t j = 0; j < raw.size(); ++j) {
      objectives.set(entry.objective_names[j], json::Value::number(raw[j]));
    }
    body.set("objectives", std::move(objectives));
    if (!entry.thetas.empty()) {
      json::Value theta = json::Value::array();
      for (double v : entry.thetas[decision.index]) {
        theta.push_back(json::Value::number(v));
      }
      body.set("theta", std::move(theta));
    }
    digest_ = fnv1a64(json::dump_compact(body), digest_);
    ++decisions_;
    return body;
  }

  static json::Value mode_to_json(const OperatingMode& mode) {
    json::Value out = json::Value::object();
    out.set("name", json::Value::string(mode.name));
    out.set("description", json::Value::string(mode.description));
    out.set("source", json::Value::string(mode.source));
    out.set("rule", json::Value::string(mode_rule_name(mode.rule)));
    if (mode.rule == ModeRule::BestFor) {
      out.set("objective", json::Value::string(runtime::objective_kind_name(
                               mode.best_for)));
    } else if (mode.rule == ModeRule::Weights) {
      json::Value weights = json::Value::object();
      for (const auto& [kind, w] : mode.weights) {
        weights.set(runtime::objective_kind_name(kind),
                    json::Value::number(w));
      }
      out.set("weights", std::move(weights));
    }
    return out;
  }

  json::Value dispatch(serde::ObjectReader& reader, const std::string& op,
                       const json::Value& streamed) {
    json::Value body = json::Value::object();
    if (op == "decide") {
      DecideRequest request = parse_decide_body(reader);
      reader.finish();
      auto [decision, snapshot] = server_.decide(request);
      body = decision_body(decision);
      body.set("generation", serde::u64_to_json(snapshot->generation));
    } else if (op == "batch") {
      const json::Value& list = reader.require_key("requests");
      reader.finish();
      std::shared_ptr<const Snapshot> snapshot = store_.require_snapshot();
      json::Value results = json::Value::array();
      for (std::size_t i = 0; i < list.size(); ++i) {
        json::Value item = json::Value::object();
        try {
          serde::ObjectReader r(list.at(i), "request #" + std::to_string(i));
          DecideRequest request = parse_decide_body(r);
          r.finish();
          item = decision_body(server_.decide_on(*snapshot, request));
          item.set("ok", json::Value::boolean(true));
        } catch (const std::exception& e) {
          item = json::Value::object();
          item.set("ok", json::Value::boolean(false));
          item.set("error", json::Value::string(e.what()));
        }
        results.push_back(std::move(item));
      }
      body.set("results", std::move(results));
      body.set("generation", serde::u64_to_json(snapshot->generation));
    } else if (op == "modes") {
      reader.finish();
      json::Value modes = json::Value::array();
      for (const OperatingMode& mode : store_.modes().modes()) {
        modes.push_back(mode_to_json(mode));
      }
      body.set("modes", std::move(modes));
    } else if (op == "scenarios") {
      reader.finish();
      std::shared_ptr<const Snapshot> snapshot = store_.require_snapshot();
      json::Value scenarios = json::Value::array();
      for (const auto& [name, sc_entry] : snapshot->scenarios) {
        const PolicyEntry& fallback = snapshot->entries[sc_entry.default_entry];
        json::Value sc = json::Value::object();
        sc.set("name", json::Value::string(name));
        json::Value objectives = json::Value::array();
        for (const auto& obj : fallback.objective_names) {
          objectives.push_back(json::Value::string(obj));
        }
        sc.set("objectives", std::move(objectives));
        sc.set("default_method", json::Value::string(fallback.method));
        json::Value methods = json::Value::array();
        for (const auto& [method, idx] : sc_entry.methods) {
          const PolicyEntry& entry = snapshot->entries[idx];
          json::Value m = json::Value::object();
          m.set("name", json::Value::string(method));
          m.set("policies", serde::u64_to_json(entry.front.size()));
          m.set("cells", serde::u64_to_json(entry.cells));
          m.set("phv", json::Value::number(entry.phv));
          m.set("has_thetas", json::Value::boolean(!entry.thetas.empty()));
          methods.push_back(std::move(m));
        }
        sc.set("methods", std::move(methods));
        scenarios.push_back(std::move(sc));
      }
      body.set("scenarios", std::move(scenarios));
      body.set("generation", serde::u64_to_json(snapshot->generation));
    } else if (op == "reload") {
      reader.finish();
      std::shared_ptr<const Snapshot> snapshot = store_.require_snapshot();
      body.set("entries", serde::u64_to_json(snapshot->entries.size()));
      body.set("generation", serde::u64_to_json(snapshot->generation));
    } else if (op == "ping") {
      reader.finish();
      body.set("protocol", json::Value::string(kServeProtocol));
      body.set("generation", serde::u64_to_json(store_.generation()));
      body.set("uptime_s", streamed.at("uptime_s"));
      body.set("reports", serde::u64_to_json(1));  // one backing file
      body.set("decisions", serde::u64_to_json(decisions_));
    } else if (op == "metrics") {
      const std::string format = reader.get_string("format", "json");
      reader.finish();
      if (format == "prometheus") {
        body.set("format", json::Value::string("prometheus"));
        body.set("text", streamed.at("text"));
      } else {
        body.set("metrics", streamed.at("metrics"));
      }
    } else if (op == "digest") {
      reader.finish();
      body.set("decisions", serde::u64_to_json(decisions_));
      body.set("digest", json::Value::string(hex64(digest_)));
    } else {
      require(false, "the oracle covers every op but quit");
    }
    return body;
  }

  PolicyStore& store_;
  PolicyServer server_;
  std::uint64_t digest_ = 0xCBF29CE484222325ULL;
  std::uint64_t decisions_ = 0;
};

/// make_report() plus a scenario and method whose names need every
/// escape (a quote, a backslash, a control byte) and carry non-ASCII
/// UTF-8, with non-finite objective and theta values — what the
/// snapshot admits.
exec::CampaignReport hostile_report() {
  exec::CampaignReport report = make_report();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  report.cells.push_back(make_cell(
      "g\"a\\m\x01ma-\xc3\xa9\xe2\x82\xac", "p\"l\\u\x1fg-\xf0\x9f\x9a\x80", 1,
      {"time_s", "ppw_gips_per_w"},
      {{1.0, -inf}, {inf, -7.0}, {0.5, 2.0}, {4.9e-324, 1e300}},
      {{nan, -0.0, 0.1}, {inf, -inf, 5e-324}, {1e300, nan, -1.0},
       {-inf, 1.0, 2.0}},
      7.0));
  report.total_cells = report.cells.size();
  return report;
}

TEST(Protocol, StreamedResponsesMatchTreeOracle) {
  const std::string path = temp_path("oracle");
  const exec::CampaignReport hostile_doc = hostile_report();
  report::save_report(path, hostile_doc);
  PolicyStore store;
  store.load_and_install({path});
  ServeSession session(store, {path});
  TreeOracle oracle(store);

  const exec::CellResult& hostile = hostile_doc.cells.back();
  const std::string hostile_scenario =
      json::dump_compact(json::Value::string(hostile.scenario));
  const std::string hostile_method =
      json::dump_compact(json::Value::string(hostile.method));
  std::vector<std::string> lines = {
      "{\"op\":\"ping\",\"id\":\"a\\\"b\"}",
      "{\"op\":\"modes\",\"id\":0}",
      "{\"op\":\"scenarios\",\"id\":-0.0}",
      "{\"op\":\"metrics\",\"id\":1e300}",
      "{\"op\":\"metrics\",\"format\":\"prometheus\",\"id\":9007199254740993}",
      "{\"op\":\"batch\",\"requests\":[]}",
      "{\"op\":\"batch\",\"requests\":[{\"scenario\":\"nope\"},"
      "{\"scenario\":\"alpha\",\"mode\":\"nope\"},5]}",
      "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{\"scenario\":\"alpha\"},"
      "{\"scenario\":\"gamma\"},{\"scenario\":" + hostile_scenario +
          ",\"method\":" + hostile_method + ",\"mode\":\"balanced\"},"
          "{\"scenario\":\"beta\",\"mode\":\"auto\",\"workload\":"
          "{\"battery_pct\":9}}]}",
      "{\"op\":\"decide\",\"scenario\":\"nope\",\"id\":7}",
      "{\"op\":\"decide\",\"scenario\":\"alpha\",\"weights\":{\"x\":1}}",
  };
  const std::vector<std::string> modes = {"performance", "balanced",
                                          "powersave", "thermal-critical"};
  struct Target {
    std::string scenario;
    std::vector<std::string> methods;
    std::string weights;
  };
  const std::vector<Target> targets = {
      {"\"alpha\"", {"\"parmis\"", "\"governor\""},
       "{\"time_s\":1,\"energy_j\":2}"},
      {"\"beta\"", {"\"parmis\""}, "{\"energy_j\":1,\"ppw_gips_per_w\":3}"},
      {hostile_scenario, {hostile_method},
       "{\"time_s\":1,\"ppw_gips_per_w\":1e-300}"}};
  for (const auto& [scenario, methods, weights] : targets) {
    lines.push_back("{\"op\":\"decide\",\"scenario\":" + scenario + "}");
    for (const std::string& method : methods) {
      const std::string head = "{\"op\":\"decide\",\"scenario\":" + scenario +
                               ",\"method\":" + method;
      for (const std::string& mode : modes) {
        lines.push_back(head + ",\"mode\":\"" + mode + "\",\"id\":\"" + mode +
                        "\"}");
      }
      lines.push_back(head + ",\"weights\":" + weights + "}");
      lines.push_back(head + ",\"mode\":\"auto\",\"workload\":"
                             "{\"thermal_headroom_c\":1.5,\"load\":0.9}}");
    }
  }
  lines.push_back("{\"op\":\"digest\",\"id\":\"d\"}");
  lines.push_back("{\"op\":\"reload\",\"id\":\"r\"}");
  lines.push_back("{\"op\":\"scenarios\"}");
  lines.push_back("{\"op\":\"decide\",\"scenario\":\"alpha\"}");
  lines.push_back("{\"op\":\"digest\"}");

  std::size_t non_finite = 0;
  for (const std::string& line : lines) {
    const std::string response = one_line(session, line);
    const json::Value streamed = json::parse(response);
    EXPECT_EQ(response, oracle.respond(line, streamed)) << line;
    if (response.find("\"f64:") != std::string::npos) ++non_finite;
  }
  EXPECT_GT(non_finite, 0u);  // the hostile entry's values were served
  EXPECT_EQ(session.decisions(), oracle.decisions());
  EXPECT_EQ(session.decision_digest(), oracle.digest());
  EXPECT_EQ(store.generation(), 2u);  // the reload was answered, not refused
  std::filesystem::remove(path);
}

// ------------------------------------------------------ hostile input

TEST(Protocol, HostileLinesAlwaysGetOneWellFormedResponse) {
  PolicyStore store;
  install(store);
  ServeSession session(store, {});  // reload refuses: generations stay put
  const std::string known = "{\"op\":\"decide\",\"scenario\":\"alpha\","
                            "\"mode\":\"powersave\",\"id\":\"k\"}";
  const std::string before = one_line(session, known);

  const char* const seeds[] = {
      "{\"op\":\"decide\",\"scenario\":\"alpha\",\"id\":\"r1\"}",
      "{\"op\":\"decide\",\"scenario\":\"alpha\",\"method\":\"parmis\","
      "\"mode\":\"powersave\",\"id\":7}",
      "{\"op\":\"decide\",\"scenario\":\"beta\",\"weights\":"
      "{\"energy_j\":1,\"ppw_gips_per_w\":3}}",
      "{\"op\":\"decide\",\"scenario\":\"beta\",\"mode\":\"auto\","
      "\"workload\":{\"thermal_headroom_c\":1.5,\"battery_pct\":40,"
      "\"load\":0.5}}",
      "{\"op\":\"batch\",\"requests\":[{\"scenario\":\"alpha\"},"
      "{\"scenario\":\"beta\",\"mode\":\"balanced\"}],\"id\":\"b\"}",
      "{\"op\":\"modes\",\"id\":-2.5e-3}",
      "{\"op\":\"scenarios\",\"id\":3}",
      "{\"op\":\"ping\",\"id\":\"p\"}",
      "{\"op\":\"digest\",\"id\":4}",
      "{\"op\":\"reload\",\"id\":5}",
      "{\"op\":\"metrics\",\"format\":\"prometheus\",\"id\":6}",
  };
  Rng rng(0x5EEDF022);
  std::size_t lines = 0;
  std::size_t answered_ok = 0;
  for (const char* seed : seeds) {
    for (const std::string& line : fuzz::mutations(seed, rng, 125)) {
      ++lines;
      ServeSession::Outcome outcome;
      ASSERT_NO_THROW(outcome = session.handle_line(line)) << line;
      if (blank_line(line)) {
        EXPECT_TRUE(outcome.response.empty()) << line;
        continue;
      }
      ASSERT_EQ(outcome.response.find('\n'), std::string::npos) << line;
      json::Value response;
      ASSERT_NO_THROW(response = json::parse(outcome.response)) << line;
      ASSERT_TRUE(response.is_object()) << outcome.response;
      const json::Value* ok = response.find("ok");
      ASSERT_TRUE(ok != nullptr && ok->is_bool()) << outcome.response;
      if (ok->as_bool()) ++answered_ok;
    }
  }
  EXPECT_GE(lines, 1900u);
  EXPECT_GT(answered_ok, 0u);
  EXPECT_EQ(one_line(session, known), before);
}

TEST(ReportSerdeFuzz, MutatedReportsLoadOrFailWithACleanError) {
  std::ostringstream os;
  report::write_report(os, make_report());
  Rng rng(0x5EEDF023);
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  for (const std::string& text : fuzz::mutations(os.str(), rng, 400)) {
    // A fresh path per mutation: rewriting one file over and over makes
    // some filesystems (ext4) flush on every replace, which costs tens
    // of ms a time, while a new file costs microseconds.
    const std::string path = temp_path("fuzz_report");
    std::ofstream(path, std::ios::binary) << text;
    try {
      (void)report::load_report(path);
      ++loaded;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a parmis::Error: " << e.what();
    }
    std::filesystem::remove(path);
  }
  EXPECT_GT(rejected, 10 * loaded);
}

TEST(ReportSerdeFuzz, ParseReportAgreesWithTheTreeDecoderOnEveryMutation) {
  std::ostringstream os;
  report::write_report(os, make_report());
  EXPECT_TRUE(report::oracle::expect_decoders_agree(os.str()));
  Rng rng(0x5EEDF023);
  std::size_t inputs = 0;
  for (const std::string& text : fuzz::mutations(os.str(), rng, 400)) {
    ++inputs;
    report::oracle::expect_decoders_agree(text);
  }
  EXPECT_GE(inputs, os.str().size() + 400);
}

TEST(ReportSerdeFuzz, ParseReportAgreesWithTheTreeDecoderOnTheServeMixReport) {
  // The report the serve-mix benchmark reloads: the method-matrix plan
  // at 12 seeds from base seed 1 (408 cells, ~3.75 MB).
  serde::CampaignPlan plan =
      serde::load_plan(PARMIS_EXAMPLES_DIR "/plans/method_matrix.json");
  plan.seeds_per_cell = 12;
  plan.base_seed = 1;
  plan.cache.dir.clear();
  exec::CampaignConfig config =
      serde::to_campaign_config(plan, serde::ScenarioCatalogue());
  config.num_threads = 4;
  const exec::CampaignReport run = exec::CampaignRunner(config).run();
  ASSERT_EQ(run.cells.size(), 408u);
  std::ostringstream os;
  report::write_report(os, run);
  const std::string text = os.str();
  EXPECT_GT(text.size(), 3u << 20);
  EXPECT_TRUE(report::oracle::expect_decoders_agree(text));
  EXPECT_TRUE(report::oracle::same_report(report::parse_report(text, "mm"),
                                          run));
  // A few hostile edits of the full-size text as well.
  Rng rng(0x5EEDF024);
  for (int i = 0; i < 8; ++i) {
    std::string flipped = text;
    flipped[rng.uniform_index(flipped.size())] ^=
        static_cast<char>(1u << rng.uniform_index(8));
    report::oracle::expect_decoders_agree(flipped);
    report::oracle::expect_decoders_agree(
        text.substr(0, rng.uniform_index(text.size())));
  }
}

}  // namespace
}  // namespace parmis::serve
