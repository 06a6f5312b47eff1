// campaign — declarative scenario sweeps on the parallel campaign runner.
//
// Examples:
//   campaign --list
//   campaign --list-methods               # registry: objectives + knobs
//   campaign                              # all scenarios, all methods
//   campaign --scenarios=xu3-mibench-te,mobile3-edp --threads=4 --seeds=2
//   campaign --plan examples/plans/quick_smoke.json
//   campaign --dump-plan                  # effective plan of this invocation
//   campaign --scenario-dir=my-scenarios --scenarios=my-custom-scenario
//   campaign --shard-index=0 --shard-count=4 --cache-dir=.parmis-cache
//   campaign --compare-threads --threads=4 --csv=campaign.csv
//   campaign --cache-dir=.parmis-cache --resume
//
// Plans: --plan loads a declarative campaign (scenarios by name or
// inline, methods, seeds, anchor limit, cache, shard) from JSON;
// explicit CLI flags override plan fields, and --dump-plan prints the
// effective plan of any invocation (flags, plan file, or both) so every
// flag-driven run is one redirect away from a reproducible plan file.
// --dump-scenarios prints every registered scenario (built-ins plus
// --scenario-dir files) as JSON documents for editing into scenario
// files of your own.
//
// Sharding: --shard-index/--shard-count (or the plan's shard block)
// runs one deterministic contiguous slice of the ordered cell list;
// slices partition the campaign, so N processes sharing one cache
// directory compute it exactly once and reports merge without overlap.
//
// --compare-threads runs the identical campaign once on 1 thread and
// once on --threads threads, asserts the per-cell objectives are
// bitwise-identical (digest equality), and reports the measured
// speedup.  Exit status is non-zero if any cell failed or the
// determinism check did not hold.
//
// --cache-dir enables the content-addressed result cache: each cell is
// looked up before execution and stored after, so repeated suites cost
// O(changed cells).  --resume prints how much of the campaign will be
// replayed before running; --no-cache bypasses a configured cache
// (flag or plan); --cache-stats reports entry counts and hit/miss
// totals; --cache-gc prunes oldest entries down to --cache-max-mb and
// exits; --require-cached replays the campaign from the cache alone and
// exits non-zero at the first cell it does not hold, having computed,
// stored and written nothing (CI effectiveness check).
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "methods/registry.hpp"
#include "obs/distributed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "serde/plan.hpp"
#include "serde/scenario_json.hpp"

namespace {

using parmis::exec::CampaignConfig;
using parmis::exec::CampaignReport;
using parmis::exec::CampaignRunner;
using parmis::serde::CampaignPlan;
using parmis::serde::ScenarioCatalogue;
using parmis::serde::ScenarioRef;

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_catalogue(const ScenarioCatalogue& catalogue) {
  parmis::Table table({"scenario", "platform", "apps", "objectives",
                       "thermal", "methods"});
  for (const auto& name : catalogue.names()) {
    const parmis::scenario::ScenarioSpec spec = catalogue.get(name);
    std::size_t napps = spec.benchmark_apps.size();
    if (spec.generated.has_value()) napps += spec.generated->num_apps;
    std::string objectives;
    for (const auto& o : parmis::scenario::make_objectives(spec)) {
      objectives += (objectives.empty() ? "" : "+") + o.name();
    }
    std::string methods;
    for (const auto& m : spec.methods) {
      methods += (methods.empty() ? "" : ",") + m;
    }
    table.begin_row()
        .add(spec.name)
        .add(spec.platform)
        .add_int(static_cast<long long>(napps))
        .add(objectives)
        .add(spec.thermal ? "on" : "off")
        .add(methods);
  }
  table.print(std::cout);
}

void print_methods() {
  // One row per registered method: its declared objective support and
  // the knobs a plan's `method_configs` entry can set (from the typed
  // default config's JSON form).
  parmis::Table table({"method", "objectives", "config knobs",
                       "description"});
  const parmis::methods::MethodRegistry& registry =
      parmis::methods::MethodRegistry::instance();
  for (const auto& name : registry.names()) {
    const parmis::methods::Method& method = registry.get(name);
    std::string knobs = "-";
    if (const auto config = method.default_config()) {
      knobs.clear();
      const parmis::json::Value doc = method.config_to_json(*config);
      for (const auto& [key, value] : doc.members()) {
        knobs += (knobs.empty() ? "" : ", ") + key;
      }
    }
    table.begin_row()
        .add(name)
        .add(method.capabilities().objectives_label())
        .add(knobs)
        .add(method.description());
  }
  table.print(std::cout);
}

void print_report(const CampaignReport& report) {
  parmis::Table table({"scenario", "method", "seed", "evals", "front", "phv",
                       "overhead_us", "wall_s", "status"});
  for (const auto& cell : report.cells) {
    table.begin_row()
        .add(cell.scenario)
        .add(cell.method)
        .add_int(static_cast<long long>(cell.seed))
        .add_int(static_cast<long long>(cell.evaluations))
        .add_int(static_cast<long long>(cell.front.size()))
        .add(cell.phv, 4)
        .add(cell.decision_overhead_us, 2)
        .add(cell.wall_s, 3)
        .add(!cell.error.empty() ? "FAILED: " + cell.error
                                 : (cell.from_cache ? "cached" : "ok"));
  }
  table.print(std::cout);
  std::ostringstream digest;
  digest << std::hex << report.objectives_digest();
  std::cout << "\ncells: " << report.cells.size();
  if (report.shard.count > 1) {
    std::cout << " (shard " << report.shard.index << "/"
              << report.shard.count << " of " << report.total_cells
              << " total)";
  }
  std::cout << "  threads: " << report.num_threads
            << "  wall: " << parmis::format_double(report.wall_s, 3)
            << " s  digest: " << digest.str() << "\n";
}

/// Writes `text` to `path`, or stdout when path is empty/"-".
void emit_text(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::cout << text;
    return;
  }
  parmis::atomic_write_file(path, text);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const parmis::CliArgs args = parmis::CliArgs::parse(argc, argv);
    // Flag preconditions are checked before any cell runs: a campaign
    // can be hours of compute, and a typo must fail in milliseconds.
    parmis::require_known_flags(
        args, {"help",          "list",           "list-methods",
               "scenarios",     "threads",        "plan",
               "dump-plan",     "dump-scenarios", "scenario-dir",
               "methods",       "seeds",          "seed",
               "anchor-limit",  "shard-index",    "shard-count",
               "csv",           "json",           "compare-threads",
               "full",          "cache-dir",      "no-cache",
               "resume",        "cache-stats",    "require-cached",
               "cache-gc",      "cache-max-mb",   "trace-out",
               "metrics-out",   "metrics-prom"});
    if (args.has("help")) {
      std::cout
          << "usage: campaign [--list] [--list-methods]\n"
             "                [--scenarios=a,b|all] [--threads=N]\n"
             "                [--plan=file.json] [--dump-plan[=path]]\n"
             "                [--dump-scenarios[=path]]\n"
             "                [--scenario-dir=dir] [--methods=a,b]\n"
             "                [--seeds=K] [--seed=S] [--anchor-limit=A]\n"
             "                [--shard-index=I --shard-count=N]\n"
             "                [--csv=path] [--json=path]\n"
             "                [--compare-threads] [--full]\n"
             "                [--cache-dir=path] [--no-cache] [--resume]\n"
             "                [--cache-stats] [--require-cached]\n"
             "                [--cache-gc] [--cache-max-mb=N]\n"
             "                [--trace-out=path] [--metrics-out=path]\n"
             "                [--metrics-prom=path]\n";
      return 0;
    }

    // ------------------------------------------------- scenario catalogue
    ScenarioCatalogue catalogue;
    if (args.has("scenario-dir")) {
      const std::string dir = args.get("scenario-dir", "");
      const std::size_t added = catalogue.add_directory(dir);
      parmis::require(added > 0,
                      "campaign: --scenario-dir: no *.json scenario files "
                      "in " + dir);
    }
    if (args.has("list")) {
      print_catalogue(catalogue);
      return 0;
    }
    if (args.has("list-methods")) {
      print_methods();
      return 0;
    }
    if (args.has("dump-scenarios")) {
      parmis::json::Value all = parmis::json::Value::array();
      for (const auto& name : catalogue.names()) {
        all.push_back(parmis::serde::scenario_to_json(catalogue.get(name)));
      }
      emit_text(args.get("dump-scenarios", ""), parmis::json::dump(all));
      return 0;
    }

    // -------------------------------------------- plan + flag overrides
    // A plan file provides the baseline; explicit CLI flags then win, so
    // one plan serves many shards/seeds via `--plan p.json --shard-index=K`.
    CampaignPlan plan;
    if (args.has("plan")) {
      plan = parmis::serde::load_plan(args.get("plan", ""));
      // Inline plan scenarios join the catalogue so --scenarios=name (or
      // =all) can select them just like built-ins and --scenario-dir files.
      for (const auto& ref : plan.scenarios) {
        if (ref.inline_spec.has_value()) catalogue.add(*ref.inline_spec);
      }
    } else {
      plan = parmis::serde::default_campaign_plan();
      // With --scenario-dir but no --plan/--scenarios, the default
      // campaign spans the whole catalogue: registering a directory and
      // launching a full run must cover the user's scenarios too.
      if (catalogue.num_user_scenarios() > 0) {
        plan.scenarios.clear();
        for (const auto& name : catalogue.names()) {
          plan.scenarios.push_back(ScenarioRef::by_name(name));
        }
      }
    }
    if (args.has("scenarios")) {
      const std::string which = args.get("scenarios", "all");
      plan.scenarios.clear();
      if (which == "all") {
        for (const auto& name : catalogue.names()) {
          plan.scenarios.push_back(ScenarioRef::by_name(name));
        }
      } else {
        for (const auto& name : split_csv(which)) {
          plan.scenarios.push_back(ScenarioRef::by_name(name));
        }
      }
      if (!args.has("plan")) plan.name = "cli-campaign";
    }
    if (args.has("methods")) {
      plan.methods = split_csv(args.get("methods", ""));
    }
    plan.seeds_per_cell = args.get_count("seeds", plan.seeds_per_cell);
    plan.base_seed = args.get_count("seed", plan.base_seed);
    plan.anchor_limit = args.get_count("anchor-limit", plan.anchor_limit);
    if (parmis::full_scale_requested(args)) plan.full_budget = true;
    if (args.has("shard-index") || args.has("shard-count")) {
      parmis::exec::ShardSpec shard = plan.shard.value_or(
          parmis::exec::ShardSpec{});
      shard.index = args.get_count("shard-index", shard.index);
      shard.count = args.get_count("shard-count", shard.count);
      plan.shard = shard;
    }
    if (args.has("cache-dir")) {
      plan.cache.dir = args.get("cache-dir", ".parmis-cache");
    }
    plan.validate();

    if (args.has("dump-plan")) {
      emit_text(args.get("dump-plan", ""),
                parmis::json::dump(parmis::serde::plan_to_json(plan)));
      return 0;
    }

    // ---------------------------------------------------- observability
    // Tracing stays off (its default) unless a trace artifact was asked
    // for; metrics accumulate either way.  In a -DPARMIS_OBS=OFF build
    // these flags still write valid (empty) artifacts.
    const bool want_trace = args.has("trace-out");
    if (want_trace) {
      parmis::obs::Tracer::set_enabled(true);
      parmis::obs::Tracer::set_thread_name("main");
    }
    // Distributed trace context (obs/distributed): the orchestrator
    // hands workers their identity via PARMIS_TRACE_PARENT.  A
    // malformed value throws — a worker must not silently run with the
    // wrong identity.
    const std::optional<parmis::obs::TraceContext> trace_parent =
        parmis::obs::TraceContext::from_env();
    const std::uint64_t run_start_ns = parmis::steady_now_ns();

    CampaignConfig config = parmis::serde::to_campaign_config(plan,
                                                              catalogue);
    config.num_threads =
        args.get_count("threads", parmis::exec::default_num_threads());

    // ------------------------------------------------------ result cache
    const std::string cache_dir =
        args.get_bool("no-cache", false) ? "" : plan.cache.dir;
    const bool resume = args.get_bool("resume", false);
    const bool compare_threads = args.get_bool("compare-threads", false);
    parmis::require(!resume || !cache_dir.empty(),
                    "campaign: --resume requires a cache (--cache-dir or "
                    "the plan's cache.dir, and no --no-cache)");
    const bool require_cached = args.get_bool("require-cached", false);
    parmis::require(!(compare_threads && require_cached),
                    "campaign: --require-cached is incompatible with "
                    "--compare-threads (the determinism check executes "
                    "every cell)");
    parmis::require(!(compare_threads && resume),
                    "campaign: --resume is incompatible with "
                    "--compare-threads (the determinism check executes "
                    "every cell; nothing is replayed)");
    parmis::require(!require_cached || !cache_dir.empty(),
                    "campaign: --require-cached requires a cache "
                    "(--cache-dir or the plan's cache.dir, and no "
                    "--no-cache)");
    parmis::require(!args.get_bool("cache-stats", false) ||
                        !cache_dir.empty(),
                    "campaign: --cache-stats requires a cache");
    parmis::require(!args.has("cache-max-mb") ||
                        args.get_bool("cache-gc", false),
                    "campaign: --cache-max-mb only applies to --cache-gc");
    if (args.get_bool("cache-gc", false)) {
      // Offline maintenance: prune and exit.  Independent of --no-cache
      // (which only controls whether *this run* would consult entries);
      // --cache-dir was already folded into plan.cache.dir above.
      parmis::require(!plan.cache.dir.empty(),
                      "campaign: --cache-gc requires a cache dir "
                      "(--cache-dir or the plan's cache.dir)");
      const std::uint64_t max_mb = args.get_count("cache-max-mb", 256);
      parmis::require(max_mb <= (UINT64_MAX >> 20),
                      "campaign: --cache-max-mb is too large");
      const std::uintmax_t max_bytes = max_mb * 1024u * 1024u;
      parmis::cache::ResultCache gc_cache(plan.cache.dir);
      const std::size_t removed = gc_cache.gc(max_bytes);
      std::cout << "cache-gc: removed " << removed << " entries; "
                << gc_cache.num_entries() << " entries ("
                << gc_cache.total_bytes() << " bytes) remain in "
                << gc_cache.dir() << "\n";
      return 0;
    }
    std::unique_ptr<parmis::cache::ResultCache> cache;
    if (!cache_dir.empty()) {
      cache = std::make_unique<parmis::cache::ResultCache>(cache_dir);
    }
    config.cache = cache.get();
    if (resume) {
      const auto [cached, total] = CampaignRunner(config).probe_cache();
      std::cout << "resume: " << cached << "/" << total
                << " cells cached; executing " << (total - cached) << "\n";
    }

    CampaignReport report;
    bool deterministic = true;
    if (compare_threads) {
      // The determinism check must execute every cell twice — a cache
      // would replay the baseline's results into the parallel run and
      // make digest equality vacuous.
      if (config.cache != nullptr) {
        std::cout << "note: cache disabled under --compare-threads\n";
        config.cache = nullptr;
        cache.reset();
      }
      CampaignConfig serial = config;
      serial.num_threads = 1;
      std::cout << "== reference run (1 thread) ==\n";
      const CampaignReport baseline = CampaignRunner(serial).run();
      std::cout << "== parallel run (" << config.num_threads
                << " threads) ==\n";
      report = CampaignRunner(config).run();
      deterministic =
          baseline.objectives_digest() == report.objectives_digest();
      print_report(report);
      const double speedup =
          report.wall_s > 0.0 ? baseline.wall_s / report.wall_s : 0.0;
      std::cout << "1-thread wall: "
                << parmis::format_double(baseline.wall_s, 3)
                << " s  " << report.num_threads << "-thread wall: "
                << parmis::format_double(report.wall_s, 3)
                << " s  speedup: " << parmis::format_double(speedup, 2)
                << "x\n"
                << "determinism: "
                << (deterministic ? "bitwise-identical objectives"
                                  : "DIGEST MISMATCH")
                << "\n";
    } else if (require_cached) {
      // A pure cache read: the first miss ends the run with nothing
      // computed, stored or written.
      std::string missing;
      std::optional<CampaignReport> replayed =
          CampaignRunner(config).replay_cached(config.shard, &missing);
      if (!replayed.has_value()) {
        std::cerr << "campaign: --require-cached: cell " << missing
                  << " is not in the cache\n";
        return 1;
      }
      report = std::move(*replayed);
      print_report(report);
    } else {
      report = CampaignRunner(config).run();
      print_report(report);
    }

    if (cache != nullptr) {
      std::cout << "cache: " << report.cache_hits << " hits, "
                << report.cache_misses << " misses ("
                << (resume ? "resumed" : "reused") << " "
                << report.cache_hits << "/" << report.cells.size()
                << " cells)\n";
    }
    if (args.get_bool("cache-stats", false)) {
      if (cache != nullptr) {
        const parmis::cache::CacheStats stats = cache->stats();
        std::cout << "cache-stats: dir " << cache->dir() << ", "
                  << cache->num_entries() << " entries, "
                  << cache->total_bytes() << " bytes; this run: "
                  << stats.hits << " hits, " << stats.misses << " misses, "
                  << stats.stores << " stores, " << stats.corrupt
                  << " corrupt\n";
      } else {
        std::cout << "cache-stats: cache disabled this run\n";
      }
    }

    if (args.has("csv")) report.save_csv(args.get("csv", "campaign.csv"));
    if (args.has("json")) report.save_json(args.get("json", "campaign.json"));
    if (want_trace) {
      if (trace_parent.has_value()) {
        // Worker anchor span: the whole chunk execution as one
        // "campaign"/"chunk" lane event — the flow target the stitcher
        // binds the orchestrator's lease span to.  Recorded directly
        // (not via macro) so an OBS=OFF worker still anchors its lane;
        // gated on the parent context so a standalone --trace-out in an
        // OFF build stays metadata-only (CI asserts exactly that).
        char detail[64];
        std::snprintf(detail, sizeof(detail),
                      "job=%llu;chunk=%llu;attempt=%llu",
                      static_cast<unsigned long long>(trace_parent->job),
                      static_cast<unsigned long long>(trace_parent->chunk),
                      static_cast<unsigned long long>(
                          trace_parent->attempt));
        parmis::obs::Tracer::record_complete(
            "campaign", "chunk", run_start_ns,
            parmis::steady_now_ns() - run_start_ns, detail);
      }
      emit_text(args.get("trace-out", ""),
                parmis::json::dump(parmis::obs::drained_trace_with_context(
                    trace_parent.has_value() ? "worker" : "standalone",
                    trace_parent.has_value() ? &*trace_parent : nullptr)));
    }
    if (args.has("metrics-out")) {
      emit_text(args.get("metrics-out", ""),
                parmis::json::dump(
                    parmis::obs::Registry::instance().to_json()));
    }
    if (args.has("metrics-prom")) {
      emit_text(args.get("metrics-prom", ""),
                parmis::obs::Registry::instance().to_prometheus());
    }

    bool any_failed = false;
    for (const auto& cell : report.cells) {
      any_failed = any_failed || !cell.error.empty();
    }
    return (any_failed || !deterministic) ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign: " << e.what() << "\n";
    return 1;
  }
}
