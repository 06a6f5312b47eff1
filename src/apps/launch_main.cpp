// campaign-launch — expands a campaign plan into chunked shard work
// units and drains them through a pool of local campaign worker
// processes, then reports the final strict-merged result.
//
// Examples:
//   campaign-launch --plan=plan.json --workers=3
//   campaign-launch --plan=plan.json --workers=4 --chunks=16
//       --cache-dir=.cache --out=merged.json --tables    (one line)
//   campaign-launch --plan=plan.json --inject-kill-chunk=0   # crash drill
//
// This is the one-shot front end of the orchestration core the daemon
// also runs (src/orchestrate): the plan is tiled into `--chunks`
// micro-shards, each executed as one `campaign --shard-index/--shard-count`
// child process against the shared cache, handed out one chunk at a
// time from the chunk queue (retries) and folded into a
// streaming provisional merge.  Because every chunk is an ordinary
// deterministic shard slice and the merge orders cells by slice index,
// the final report is bit-identical to a single-process unsharded run
// for any worker count, chunk count, or crash/retry schedule — the
// same digest `campaign --plan=plan.json --json=...` would produce.
//
// Worker artifacts (per-chunk reports, per-attempt logs, the streaming
// provisional.json, and final.json) live under `--work-dir/jobN`;
// --out additionally copies the final report byte-for-byte.  See
// docs/orchestration.md.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "orchestrate/protocol.hpp"
#include "report/analytics.hpp"
#include "report/report_json.hpp"
#include "serde/plan.hpp"

namespace {

using parmis::require;
namespace orch = parmis::orchestrate;

void print_usage() {
  std::cout
      << "usage: campaign-launch --plan=plan.json [--workers=N]\n"
         "                       [--chunks=M] [--max-attempts=A]\n"
         "                       [--threads=T]\n"
         "                       [--cache-dir=dir] [--work-dir=dir]\n"
         "                       [--campaign-bin=path] [--out=path]\n"
         "                       [--chunk-timeout-s=S] [--tables]\n"
         "                       [--analytics=path] [--csv=path]\n"
         "                       [--inject-kill-chunk=I] [--trace]\n"
         "\n"
         "Tiles the plan into M chunks (default 4 per worker), runs\n"
         "them as N local `campaign --shard-index/--shard-count`\n"
         "worker processes, one chunk at a time with crash\n"
         "retries, and merges the results.  The merged report is\n"
         "bit-identical to an unsharded single-process run\n"
         "(docs/orchestration.md).  --chunk-timeout-s kills a worker\n"
         "still running after S seconds and retries its chunk: the\n"
         "way a hung worker is recovered (default: no timeout).\n"
         "--inject-kill-chunk SIGKILLs the first attempt of one\n"
         "chunk to exercise the recovery path.  --trace collects\n"
         "per-worker trace and metrics shards and stitches them into\n"
         "<job_dir>/stitched_trace.json and\n"
         "<job_dir>/metrics_rollup.json (docs/observability.md).\n";
}

void print_progress(const orch::JobManager::JobInfo& info) {
  const orch::JobProgress& p = info.progress;
  std::cerr << "campaign-launch: " << p.stats.chunks_done << "/"
            << info.chunks << " chunks";
  if (p.stats.chunks_running > 0) {
    std::cerr << " (" << p.stats.chunks_running << " running)";
  }
  if (p.stats.retries > 0) std::cerr << ", retries " << p.stats.retries;
  if (p.has_report) {
    std::cerr << ", provisional digest " << parmis::hex64(p.report_digest);
  }
  // Live throughput/ETA mirror the daemon status verb's estimator.
  if (p.cells_per_s > 0.0) {
    char rate[64];
    std::snprintf(rate, sizeof(rate), ", %.1f cells/s", p.cells_per_s);
    std::cerr << rate;
    if (p.eta_s > 0.0) {
      std::snprintf(rate, sizeof(rate), ", eta %.1fs", p.eta_s);
      std::cerr << rate;
    }
  }
  std::cerr << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const parmis::CliArgs args =
        parmis::CliArgs::parse(argc, argv, {"tables", "help", "trace"});
    std::vector<std::string> known = orch::kPoolFlags;
    known.insert(known.end(),
                 {"help", "plan", "out", "tables", "analytics", "csv"});
    parmis::require_known_flags(args, known);
    if (args.has("help") || argc <= 1) {
      print_usage();
      return args.has("help") ? 0 : 1;
    }

    require(args.has("plan"), "campaign-launch: --plan is required");
    const parmis::serde::CampaignPlan plan =
        parmis::serde::load_plan(args.get("plan", ""));

    orch::JobManager manager(orch::defaults_from_flags(
        args, argc > 0 ? argv[0] : "", ".parmis-launch"));
    const orch::JobManager::JobInfo submitted = manager.submit(plan);
    std::cerr << "campaign-launch: plan \"" << plan.name << "\" — "
              << submitted.total_cells << " cells in " << submitted.chunks
              << " chunks across " << submitted.progress.workers
              << " workers (work dir " << submitted.job_dir << ")\n";

    // Follow progress; the job thread does the real work and wakes this
    // one whenever a chunk settles or the job ends.  One line per
    // chunks-done change keeps logs short but shows the pipeline.
    orch::JobManager::JobInfo info = submitted;
    std::size_t last_done = static_cast<std::size_t>(-1);
    for (;;) {
      info = *manager.wait_for_change(submitted.id, last_done);
      if (info.progress.stats.chunks_done != last_done) {
        last_done = info.progress.stats.chunks_done;
        print_progress(info);
      }
      const orch::JobProgress::State state = info.progress.state;
      if (state != orch::JobProgress::State::Pending &&
          state != orch::JobProgress::State::Running) {
        break;
      }
    }
    manager.shutdown();  // join the job thread (final.json written)
    info = *manager.info(submitted.id);

    const orch::JobProgress& p = info.progress;
    if (p.state != orch::JobProgress::State::Done) {
      std::cerr << "campaign-launch: job "
                << orch::job_state_name(p.state) << ": " << p.error << "\n";
      if (p.has_report) {
        std::cerr << "campaign-launch: last provisional merge ("
                  << p.report_cells << " cells) kept at "
                  << info.provisional_path << "\n";
      }
      return 1;
    }

    std::cerr << "campaign-launch: done — " << p.report_cells
              << " cells, digest " << parmis::hex64(p.report_digest)
              << ", wall " << p.wall_s << "s (retries " << p.stats.retries
              << ", provisional writes " << p.provisional_writes
              << ", recovered from cache " << p.chunks_recovered << ")\n";
    std::cerr << "campaign-launch: final report: " << info.final_path
              << "\n";
    if (info.trace) {
      std::cerr << "campaign-launch: stitched trace: "
                << info.stitched_trace_path << "\n"
                << "campaign-launch: metrics rollup: "
                << info.metrics_rollup_path << "\n";
    }

    if (args.has("out")) {
      // Byte-for-byte copy of the job's final report, so the --out file
      // carries the exact digest-pinned bytes the tests compare.
      const auto contents = parmis::read_file(info.final_path);
      require(contents.has_value(),
              "campaign-launch: cannot read " + info.final_path);
      parmis::atomic_write_file(args.get("out", ""), *contents);
      std::cerr << "campaign-launch: copied to " << args.get("out", "")
                << "\n";
    }
    if (args.get_bool("tables", false) || args.has("analytics") ||
        args.has("csv")) {
      const parmis::exec::CampaignReport merged =
          parmis::report::load_report(info.final_path);
      if (args.get_bool("tables", false) || args.has("analytics")) {
        const std::vector<parmis::report::ScenarioAnalytics> analytics =
            parmis::report::analyze(merged);
        if (args.get_bool("tables", false)) {
          parmis::report::print_analytics(std::cout, analytics);
        }
        if (args.has("analytics")) {
          const std::string path = args.get("analytics", "analytics.json");
          parmis::atomic_write_file(
              path, parmis::json::dump(
                        parmis::report::analytics_to_json(analytics)));
          std::cerr << "campaign-launch: analytics: " << path << "\n";
        }
      }
      if (args.has("csv")) {
        merged.save_csv(args.get("csv", "merged.csv"));
        std::cerr << "campaign-launch: csv: " << args.get("csv", "merged.csv")
                  << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign-launch: " << e.what() << "\n";
    return 1;
  }
}
